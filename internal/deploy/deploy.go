// Package deploy is the orchestration layer behind the repro facade's
// Deployment/Session API: two nouns over every deployment shape.
//
//   - A Deployment is built once from a graph via functional options
//     (method, channels, live station, loss, updates, remote) and
//     composes the server build, the shared servercache, the update manager
//     and exactly one transport (internal/transport) — the shape is chosen
//     once, in Deploy, and everything after is a method call on it.
//   - A Session is a client handle and the only owner of query semantics —
//     budgets, context binding, swap re-entry, fresh-feed retry, degraded
//     and refused classification — over whatever feed the transport hands
//     it: Query, always returning the same Result and Metrics.
//
// Deployment.RunFleet points the one fleet runner (internal/fleet) at the
// deployment: every worker drives a Session, so a fleet query is a session
// query; a dynamic deployment adds the synthetic update feed.
package deploy

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/multichannel"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/servercache"
	"repro/internal/station"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
	"repro/internal/workload"
)

// UpdateConfig turns a deployment dynamic (WithUpdates): the broadcast
// carries versioned cycles and RunFleet churns the network with a
// synthetic traffic feed while the fleet answers. Zero values select the
// churn defaults of internal/fleet (4 batches of 25 updates, 10ms apart,
// mixed mode, fleet seed + 1).
type UpdateConfig struct {
	// Batches, BatchSize, Interval, Mode and Seed parameterize the
	// synthetic weight-update feed a RunFleet on this deployment applies.
	Batches   int
	BatchSize int
	Interval  time.Duration
	Mode      update.Mode
	Seed      int64
}

// Option is one functional configuration choice passed to Deploy.
type Option func(*config)

// config collects the options before validation.
type config struct {
	method    Method
	params    Params
	channels  int
	live      bool
	stCfg     station.Config
	loss      float64
	lossSeed  int64
	upd       *UpdateConfig
	cacheNet  string
	diskDir   string
	diskBytes int64
	remote    string
}

// WithMethod picks the air-index scheme (default NR).
func WithMethod(m Method) Option { return func(c *config) { c.method = m } }

// WithParams tunes the scheme server's build parameters.
func WithParams(p Params) Option { return func(c *config) { c.params = p } }

// WithChannels shards the broadcast cycle across k parallel channels
// (regions in contiguous kd order, an on-air directory on every channel);
// clients hop. k == 1 (the default) is the plain single channel.
func WithChannels(k int) Option { return func(c *config) { c.channels = k } }

// WithLive puts the deployment on the air: a live broadcast station (one
// per channel, on a shared clock when sharded) streams the cycle to
// concurrently subscribed sessions. Without it the deployment replays the
// cycle offline, the paper's simulation model.
func WithLive(cfg station.Config) Option { return func(c *config) { c.live = true; c.stCfg = cfg } }

// WithLoss sets the deterministic Bernoulli packet-loss rate in [0,1) and
// the seed of the loss pattern: the offline air's pattern, and the default
// pattern seed of live subscriptions.
func WithLoss(rate float64, seed int64) Option {
	return func(c *config) { c.loss = rate; c.lossSeed = seed }
}

// WithUpdates makes the broadcast dynamic: a versioned update manager owns
// the cycle, RunFleet churns arc weights per cfg while the fleet answers,
// and sessions transparently re-enter queries that straddle a cycle swap.
// Requires WithLive on a single channel.
func WithUpdates(cfg UpdateConfig) Option { return func(c *config) { c.upd = &cfg } }

// WithRemote tunes the deployment's sessions to a remote wire broadcaster
// (internal/wire) at addr (host:port) instead of a local transport: every
// query dials a UDP subscription to the broadcast another process serves
// with ServeWire (or airserve -listen), and Session.Query runs unchanged
// over the socket. The scheme server is still built locally — the client
// half needs it, and Deploy verifies at dial time that the remote cycle
// matches the local build. WithLoss applies as receiver-side injected loss
// on top of whatever the real wire loses. Excludes WithLive, WithUpdates
// and WithChannels (the wire carries one static channel).
func WithRemote(addr string) Option { return func(c *config) { c.remote = addr } }

// WithCache keys the server build in the shared servercache under the
// given canonical network name (e.g. "germany/0.05/42"): deployments,
// tests and fuzzers naming the same (network, method, params) share one
// immutable build instead of repeating the pre-computation.
func WithCache(network string) Option { return func(c *config) { c.cacheNet = network } }

// WithDiskCache persists keyed builds across process restarts: cycles and
// border pre-computation write to a diskcache tier rooted at dir (LRU
// byte budget maxBytes, 0 = unbounded), and a later deployment naming the
// same (network, method, params) loads them instead of re-running the
// Dijkstra storm — the cycle served straight from an mmap'd cache entry.
// Requires WithCache to name the network (the disk key). EB, NR and DJ
// warm-load; other methods still build cold but share the tier's dir.
func WithDiskCache(dir string, maxBytes int64) Option {
	return func(c *config) { c.diskDir = dir; c.diskBytes = maxBytes }
}

// Deployment is a built broadcast deployment: the graph, the scheme
// server, and the transport for its shape — offline channel or K-channel
// air, live station or station group, remote wire broadcaster — optionally
// versioned by an update manager. Build one with Deploy, obtain client
// handles with Session, and load-test with RunFleet. A Deployment is safe
// for concurrent sessions.
type Deployment struct {
	g      *graph.Graph
	method Method
	srv    scheme.Server

	channels int
	loss     float64
	lossSeed int64
	live     bool
	remote   string
	cacheNet string // WithCache network name; "" when unkeyed
	upd      *UpdateConfig
	mgr      *update.Manager // dynamic (WithUpdates)

	// air is the one transport sessions attach through, chosen in Deploy.
	air transport.Transport
}

// Deploy builds a deployment of g from the options: the scheme server
// (through the shared servercache when WithCache names the network), the
// channel plan when sharded, the update manager when dynamic, and the
// offline air or the live station wiring. A live deployment goes on the
// air on Start (or lazily on first Session/RunFleet); Close takes it off.
func Deploy(g *graph.Graph, opts ...Option) (*Deployment, error) {
	var c config
	c.method = NR
	for _, o := range opts {
		o(&c)
	}
	if c.channels == 0 {
		c.channels = 1
	}
	if c.channels < 1 {
		return nil, fmt.Errorf("repro: %d channels; want >= 1", c.channels)
	}
	if c.loss < 0 || c.loss >= 1 {
		return nil, fmt.Errorf("repro: loss rate %v outside [0,1)", c.loss)
	}
	if c.upd != nil {
		if !c.live {
			return nil, fmt.Errorf("repro: WithUpdates needs a live deployment (WithLive): versions swap on the air")
		}
		if c.channels > 1 {
			return nil, fmt.Errorf("repro: WithUpdates currently drives the single-channel station; drop WithChannels")
		}
	}
	if c.diskDir != "" {
		if c.cacheNet == "" {
			return nil, fmt.Errorf("repro: WithDiskCache needs WithCache to name the network (the persistent key)")
		}
		cur := servercache.Disk()
		if cur == nil || cur.Dir() != c.diskDir {
			if err := servercache.EnableDisk(c.diskDir, c.diskBytes); err != nil {
				return nil, err
			}
		}
	}
	if c.remote != "" {
		if c.live {
			return nil, fmt.Errorf("repro: WithRemote tunes to another process's station; drop WithLive")
		}
		if c.upd != nil {
			return nil, fmt.Errorf("repro: WithRemote cannot follow cycle swaps yet; drop WithUpdates")
		}
		if c.channels > 1 {
			return nil, fmt.Errorf("repro: the wire carries one channel; drop WithChannels")
		}
	}

	d := &Deployment{
		g: g, method: c.method, channels: c.channels, loss: c.loss, lossSeed: c.lossSeed,
		live: c.live, remote: c.remote, cacheNet: c.cacheNet, upd: c.upd,
	}
	req := build.Request{Graph: g, Method: c.method, Params: c.params}
	if c.cacheNet != "" {
		req.Key = build.Key(c.cacheNet, c.method, c.params)
	}
	var err error
	if d.srv, err = build.Server(req); err != nil {
		return nil, err
	}
	cycle := d.srv.Cycle()
	if c.upd != nil {
		mgr, err := update.NewManager(g, d.srv, update.Config{})
		if err != nil {
			return nil, err
		}
		d.mgr = mgr
		cycle = mgr.Cycle() // version 0: the server's own cycle, bit-identical
	}
	if d.air, err = newTransport(&c, cycle); err != nil {
		return nil, err
	}
	return d, nil
}

// newTransport picks the deployment's one transport for its shape: the only
// place the shape is switched on.
func newTransport(c *config, cycle *broadcast.Cycle) (transport.Transport, error) {
	switch {
	case c.channels > 1:
		plan, err := multichannel.Build(cycle, c.channels, multichannel.PlanOptions{})
		if err != nil {
			return nil, err
		}
		if !c.live {
			return transport.NewOfflineAir(plan, c.loss, c.lossSeed)
		}
		mst, err := multichannel.NewStation(plan, c.stCfg)
		return transport.LiveGroup{Station: mst}, err
	case c.live:
		st, err := station.New(cycle, c.stCfg)
		return transport.Live{Station: st}, err
	case c.remote != "":
		// The probe fails fast when nobody is listening, and catches a build
		// mismatch (different graph or parameters) before any session
		// queries against the wrong cycle.
		r, err := wire.NewRemote(c.remote)
		if err != nil {
			return nil, fmt.Errorf("repro: remote broadcast: %w", err)
		}
		if r.Len() != cycle.Len() || r.Version() != cycle.Version {
			return nil, fmt.Errorf("repro: remote cycle is %d packets v%d, local %s build has %d v%d — different graph or build?",
				r.Len(), r.Version(), c.method, cycle.Len(), cycle.Version)
		}
		return r, nil
	default:
		return transport.NewOffline(cycle, c.loss, c.lossSeed)
	}
}

// Graph returns the road network the deployment was built from. On a
// dynamic deployment this is the version-0 network; the manager's graph
// advances with applied updates.
func (d *Deployment) Graph() *graph.Graph { return d.g }

// Server returns the built scheme server.
func (d *Deployment) Server() scheme.Server { return d.srv }

// Cycle returns the broadcast cycle on the air (version 0 on a dynamic
// deployment that has not churned yet).
func (d *Deployment) Cycle() *broadcast.Cycle {
	if d.mgr != nil {
		return d.mgr.Cycle()
	}
	return d.srv.Cycle()
}

// Channels returns the parallel channel count (1 = single channel).
func (d *Deployment) Channels() int { return d.channels }

// Live reports whether the deployment broadcasts via live stations.
func (d *Deployment) Live() bool { return d.live }

// Manager returns the versioned-cycle update manager of a dynamic
// deployment, or nil on a static one.
func (d *Deployment) Manager() *update.Manager { return d.mgr }

// Station returns the live single-channel station (nil unless the
// deployment is live with one channel).
func (d *Deployment) Station() *station.Station {
	l, _ := d.air.(transport.Live)
	return l.Station
}

// MultiStation returns the live K-channel station (nil unless the
// deployment is live and sharded).
func (d *Deployment) MultiStation() *multichannel.Station {
	l, _ := d.air.(transport.LiveGroup)
	return l.Station
}

// Len returns the logical cycle length in packets, whatever the shape.
func (d *Deployment) Len() int { return d.air.Len() }

// Rate returns the bit rate per-query energy is costed at: the station's,
// or the rate a remote broadcaster welcomed the probe at; zero offline.
func (d *Deployment) Rate() int { return d.air.Rate() }

// Start puts a live deployment on the air; offline deployments need no
// start. ctx bounds the station's air time: cancelling it (or calling
// Close) takes the broadcast down. Start is idempotent while the station
// is on the air, and a deployment whose context was cancelled can be
// Started again — the stations support restart, so the deployment does
// too. Session and RunFleet call it lazily with their own context when
// the caller did not.
func (d *Deployment) Start(ctx context.Context) error { return d.air.Start(ctx) }

// Close takes a live deployment off the air (subscribed sessions observe
// the feed closing) and is a no-op offline. Safe to call more than once,
// and a closed deployment may be Started again.
func (d *Deployment) Close() { d.air.Stop() }

// Observe snapshots the process-wide observability registry: the same
// series a live airserve admin listener exports on /metrics, so an offline
// run, an airbench invocation and the daemon report identical counters.
func (d *Deployment) Observe() []obs.Point { return obs.Snapshot() }

// Status is an operational snapshot of one deployment — what airserve's
// /statusz renders per deployment.
type Status struct {
	Method      string `json:"method"`
	Channels    int    `json:"channels"`
	Live        bool   `json:"live"`
	Dynamic     bool   `json:"dynamic"`
	CycleLen    int    `json:"cycle_len"`
	Version     uint32 `json:"version"`
	Subscribers int    `json:"subscribers"`
	Rate        int    `json:"rate_bps"`
	// Remote is the wire broadcaster address sessions dial (WithRemote),
	// empty for local transports.
	Remote string `json:"remote,omitempty"`
}

// Status returns the deployment's operational snapshot: shape, the cycle
// version on the air, and the live subscriber count (zero offline).
func (d *Deployment) Status() Status {
	return Status{
		Method:      string(d.method),
		Channels:    d.channels,
		Live:        d.live,
		Dynamic:     d.mgr != nil,
		CycleLen:    d.air.Len(),
		Version:     d.air.Version(),
		Subscribers: d.air.Subscribers(),
		Rate:        d.air.Rate(),
		Remote:      d.remote,
	}
}

// RunReport is the outcome of Deployment.RunFleet: the fleet aggregate,
// plus the churn accounting when the deployment is dynamic.
type RunReport struct {
	fleet.Result
	// Churn carries the staleness accounting of a dynamic run (swaps,
	// stale queries, re-entries, clean vs stale latency); nil on a static
	// broadcast. Its embedded Result equals the outer one.
	Churn *fleet.ChurnResult
}

// RunFleet load-tests a live or remote deployment with opts.Clients
// concurrent clients answering a generated, server-verified workload. Every
// client is a Session on this deployment — whatever its shape — driven by
// the one fleet runner; a dynamic deployment additionally churns the
// network with the synthetic update feed of WithUpdates while the fleet
// answers.
func (d *Deployment) RunFleet(ctx context.Context, opts fleet.Options) (RunReport, error) {
	if !d.live && d.remote == "" {
		return RunReport{}, fmt.Errorf("repro: RunFleet needs a live deployment (WithLive) or a remote one (WithRemote)")
	}
	if err := d.Start(ctx); err != nil {
		return RunReport{}, err
	}
	w := d.Workload(opts)
	target := fleet.Target{
		Method: d.srv.Name(), Rate: d.Rate(), Version: d.air.Version(),
		Open: func(id int, seed int64) (fleet.Session, error) {
			s, err := d.Session(ctx, SessionOptions{
				Seed: seed, Channel: id % d.channels,
				Deadline: opts.QueryDeadline, TuningBudget: opts.TuningBudget,
			})
			if err != nil {
				return nil, err
			}
			// The run's own loss rate and wire dial options, not the
			// deployment's defaults.
			s.loss, s.dial = opts.Loss, &opts.Wire
			return fleetSession{s}, nil
		},
	}
	if d.mgr == nil {
		res, err := fleet.Run(ctx, target, w, opts)
		return RunReport{Result: res}, err
	}
	cres, err := fleet.RunChurn(ctx, target, d.Station(), d.mgr, w, fleet.ChurnOptions{
		Fleet:      opts,
		Batches:    d.upd.Batches,
		BatchSize:  d.upd.BatchSize,
		Interval:   d.upd.Interval,
		Mode:       d.upd.Mode,
		UpdateSeed: d.upd.Seed,
	})
	if err != nil {
		return RunReport{}, err
	}
	return RunReport{Result: cres.Result, Churn: &cres}, nil
}

// ServeWire puts the deployment's live broadcast on a real UDP socket at
// addr (e.g. ":9040", "127.0.0.1:0"): remote processes then deploy with
// WithRemote against the returned broadcaster's address and their sessions
// answer over the wire. Requires a live, static, single-channel deployment
// (the wire carries one cycle version on one channel). ctx bounds the
// station's air time as in Start; the caller closes the broadcaster — or
// just closes the deployment, whose stopping station ends every stream.
// An optional BroadcasterOptions tunes admission control (MaxRemotes) and
// idle expiry; omitted, the zero-value production defaults apply.
func (d *Deployment) ServeWire(ctx context.Context, addr string, opts ...wire.BroadcasterOptions) (*wire.Broadcaster, error) {
	st := d.Station()
	if st == nil {
		return nil, fmt.Errorf("repro: ServeWire needs a live single-channel deployment (WithLive)")
	}
	if d.mgr != nil {
		return nil, fmt.Errorf("repro: ServeWire cannot serve a dynamic deployment yet (receivers do not follow swaps)")
	}
	if err := d.Start(ctx); err != nil {
		return nil, err
	}
	var bo wire.BroadcasterOptions
	if len(opts) > 0 {
		bo = opts[0]
	}
	return wire.NewBroadcaster(addr, st, bo)
}

// Workload returns the verified query pool a fleet run with opts answers on
// this deployment. Reference distances cost one Dijkstra each, so with
// PoolSize unset the distinct pool is capped at fleet.DefaultPoolSize (the
// paper's 400-query workload) and entries are reused round-robin for larger
// query counts — logged when the cap engages, and reported in Result.Pool.
// The pool is a build artifact like any other: a WithCache-keyed deployment
// generates each (network, pool, cycle length, seed) once, however often
// RunFleet is called; an unkeyed deployment generates it per call.
func (d *Deployment) Workload(opts fleet.Options) *workload.Workload {
	n := opts.Queries
	if n <= 0 {
		n = fleet.DefaultPoolSize
	}
	pool := opts.PoolSize
	if pool <= 0 {
		pool = min(n, fleet.DefaultPoolSize)
		if n > fleet.DefaultPoolSize {
			log.Printf("repro: fleet workload pool capped at %d distinct queries for a %d-query run (one reference Dijkstra each); set FleetOptions.PoolSize to widen it",
				fleet.DefaultPoolSize, n)
		}
	}
	cycleLen := d.Len()
	generate := func() (*workload.Workload, error) {
		return workload.Generate(d.g, pool, cycleLen, opts.Seed), nil
	}
	if d.cacheNet == "" {
		w, _ := generate()
		return w
	}
	// generate cannot fail, so neither can the Get.
	w, _ := servercache.Get(servercache.Key{
		Network: d.cacheNet, Scheme: "workload",
		Params: fmt.Sprintf("pool=%d len=%d seed=%d", pool, cycleLen, opts.Seed),
	}, generate)
	return w
}
