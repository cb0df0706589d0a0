// Package repro is a Go reproduction of "Shortest Path Computation on Air
// Indexes" (Kellaris & Mouratidis, PVLDB 3(1), 2010): shortest-path query
// processing in road networks under the wireless broadcast model.
//
// A server pre-computes an air index for a road network and assembles a
// broadcast cycle; clients tune in at an arbitrary moment and answer
// shortest-path queries locally, accounting the paper's performance
// factors (tuning time, access latency, peak memory, CPU time, energy).
//
// The public API is two nouns. A Deployment is built once from a graph via
// functional options and composes everything server-side — scheme build,
// channel sharding, live stations, dynamic updates, points of interest:
//
//	g, _ := repro.GeneratePreset("germany", 0.1, 42)
//	d, _ := repro.Deploy(g, repro.WithMethod(repro.NR))
//	defer d.Close()
//
// A Session is one client's handle with one query path for every
// deployment shape — offline replay, live subscription, channel-hopping
// radio, or version-window re-entry on a churning broadcast:
//
//	s, _ := d.Session(ctx, repro.SessionOptions{TuneIn: 1234})
//	res, _ := s.Query(ctx, 17, 4242)
//	fmt.Println(res.Dist, res.Metrics.TuningPackets)
//
// Live and remote deployments (WithLive, WithRemote) additionally
// load-test with Deployment.RunFleet: one fleet runner whose every client
// is a Session, with the synthetic update feed beside it on a dynamic
// deployment.
//
// The paper's two contributions are the EB (Elliptic Boundary) and NR
// (Next Region) methods; DJ, AF, LD, SPQ and HiTi are the adapted
// competitors of its Section 3.2. See DESIGN.md for the system inventory
// (§9 for this API) and EXPERIMENTS.md for the reproduced evaluation.
package repro

import (
	"io"
	"net/http"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/chaos"
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/station"
	"repro/internal/update"
	"repro/internal/wire"
)

// Method names an air-index scheme.
type Method = deploy.Method

// The seven methods of the paper's evaluation.
const (
	EB   = deploy.EB   // Elliptic Boundary (Section 4, this paper's contribution)
	NR   = deploy.NR   // Next Region (Section 5, this paper's contribution)
	DJ   = deploy.DJ   // broadcast adaptation of Dijkstra's algorithm
	AF   = deploy.AF   // broadcast adaptation of ArcFlag
	LD   = deploy.LD   // broadcast adaptation of Landmark (ALT)
	SPQ  = deploy.SPQ  // broadcast adaptation of the shortest-path quadtree
	HiTi = deploy.HiTi // broadcast adaptation of HiTi
)

// Methods lists all implemented methods in the paper's presentation order.
var Methods = deploy.Methods

// Typed failure sentinels (match with errors.Is). They classify the
// outcomes a chaos-hardened deployment must account explicitly: degraded
// answers (budgets), shed clients (admission control), and dead or
// restarted broadcasters.
var (
	// ErrBudgetExceeded classifies a session query aborted by its answer
	// budget (SessionOptions.Deadline / TuningBudget); the concrete error
	// is a *BudgetError.
	ErrBudgetExceeded = deploy.ErrBudgetExceeded
	// ErrWireDead marks a wire broadcaster gone for good: silent past every
	// retry and redial.
	ErrWireDead = wire.ErrDead
	// ErrWireRefused marks an admission refusal: the broadcaster answered
	// with a busy frame (at capacity) instead of a welcome.
	ErrWireRefused = wire.ErrRefused
	// ErrWireRestarted marks a redial that found the broadcaster serving a
	// different cycle: the subscription is stale and the session
	// re-attaches fresh.
	ErrWireRestarted = wire.ErrRestarted
	// ErrStationFull marks a subscription refused by a station's
	// MaxSubscribers admission cap.
	ErrStationFull = station.ErrFull
	// ErrTuningBudget marks a tuner that exhausted its packet allowance
	// (the underlying cause inside a *BudgetError with Reason "tuning").
	ErrTuningBudget = broadcast.ErrTuningBudget
)

// NewChaosProxy starts a fault proxy listening at listen and relaying to
// the broadcaster at upstream, applying the per-direction fault plans of
// opts to every datagram. Point WithRemote (or airfleet -connect) at
// Proxy.Addr() instead of the broadcaster to load-test through faults.
func NewChaosProxy(listen, upstream string, opts ChaosProxyOptions) (*ChaosProxy, error) {
	return chaos.NewProxy(listen, upstream, opts)
}

// Params tunes a method's server. Zero values select the paper's defaults.
type Params = deploy.Params

// Re-exported core types. The root package is a facade: the full
// implementation lives in internal packages, one per subsystem, and the
// Deployment/Session pair (internal/deploy) orchestrates them.
type (
	// Deployment is a built broadcast deployment — graph, scheme server,
	// and the transport for its shape (offline channel, K-channel air,
	// live station(s), versioned update manager). Build one with Deploy.
	Deployment = deploy.Deployment
	// Session is one client's handle on a Deployment: the uniform query
	// path (Query) over every shape.
	Session = deploy.Session
	// SessionOptions tune a client handle (tune-in position, loss-pattern
	// seed, start channel).
	SessionOptions = deploy.SessionOptions
	// DeployOption is one functional configuration choice passed to Deploy.
	DeployOption = deploy.Option
	// UpdateConfig configures a dynamic deployment (WithUpdates): the
	// rebuild hook and the synthetic churn feed RunFleet applies.
	UpdateConfig = deploy.UpdateConfig
	// RunReport is Deployment.RunFleet's outcome: the fleet aggregate plus
	// churn accounting when the deployment is dynamic.
	RunReport = deploy.RunReport

	// Graph is an immutable directed weighted road network.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Server is a built air-index method: pre-computation plus cycle.
	Server = scheme.Server
	// Client answers queries against a broadcast tuner.
	Client = scheme.Client
	// Query is a shortest-path request.
	Query = scheme.Query
	// Result carries the path, its cost and the per-query metrics.
	Result = scheme.Result
	// Metrics aggregates the paper's per-query performance factors.
	Metrics = metrics.Query
	// Station is a live broadcast station streaming a cycle to concurrent
	// subscribers (Deployment.Station).
	Station = station.Station
	// StationConfig tunes a station's clock (virtual or paced to a bit
	// rate) and per-subscriber buffering; WithLive takes one.
	StationConfig = station.Config
	// WireBroadcaster drains a live station onto a UDP socket, framing
	// every packet (magic, length, CRC32-C) so remote receivers detect
	// truncation and corruption. Serve one from a live deployment with
	// Deployment.ServeWire.
	WireBroadcaster = wire.Broadcaster
	// WireBroadcasterOptions tune a broadcaster (idle-remote expiry, and a
	// test-only frame corruption hook).
	WireBroadcasterOptions = wire.BroadcasterOptions
	// WireReceiverOptions tune how a remote session dials its UDP
	// subscription (FleetOptions.Wire): credit window, timeouts, and the
	// redial budget a receiver spends surviving a broadcaster restart.
	WireReceiverOptions = wire.ReceiverOptions
	// ChaosPlan is one direction's deterministic fault schedule — Gilbert-
	// Elliott bursty loss, reordering, duplication, corruption, blackhole
	// windows — seeded like the simulator, so every chaos run replays.
	ChaosPlan = chaos.Plan
	// ChaosProxy is a netem-style UDP fault box: dial it instead of the
	// broadcaster and every datagram through it runs the fault plan.
	ChaosProxy = chaos.Proxy
	// ChaosProxyOptions pair a downstream and an upstream ChaosPlan.
	ChaosProxyOptions = chaos.ProxyOptions
	// ChaosStats counts the faults a proxy (or injector) actually applied.
	ChaosStats = chaos.Stats
	// BudgetError reports a degraded answer: a session query aborted by its
	// tuning or deadline budget (errors.Is ErrBudgetExceeded).
	BudgetError = deploy.BudgetError
	// FleetOptions tunes a concurrent load run (Deployment.RunFleet).
	FleetOptions = fleet.Options
	// FleetResult aggregates a load run: means, p50/p95/p99 tails and
	// queries/sec throughput.
	FleetResult = fleet.Result
	// ChannelStats is one channel's share of a multi-channel fleet run.
	ChannelStats = fleet.ChannelStats
	// Quantiles is a p50/p95/p99 summary of one metric.
	Quantiles = metrics.Quantiles
	// WeightUpdate sets the weight of one directed arc: the mutation unit
	// of the dynamic-network subsystem (Deployment.Manager().Apply).
	WeightUpdate = graph.WeightUpdate
	// ChurnResult aggregates a churn run (RunReport.Churn): the usual fleet
	// result plus the staleness accounting (swaps, stale queries,
	// re-entries, clean vs stale latency).
	ChurnResult = fleet.ChurnResult
	// UpdateMode picks the weight-change profile of the synthetic traffic
	// feed (mixed, increase, decrease, no-op).
	UpdateMode = update.Mode

	// MetricPoint is one observability series' instantaneous value —
	// what Deployment.Observe and airserve's /statusz snapshot.
	MetricPoint = obs.Point
	// QueryTrace is a per-query flight recorder: a fixed-capacity ring of
	// span events (tune-in, directory read, channel hop, retry, version
	// re-entry, patch apply) a session records when SessionOptions.Trace
	// is set. Build one with NewQueryTrace.
	QueryTrace = obs.Trace
	// TraceEvent is one recorded span event of a QueryTrace.
	TraceEvent = obs.Event
	// DeployStatus is a deployment's operational snapshot (shape, cycle
	// version on the air, live subscriber count) — one /statusz entry.
	DeployStatus = deploy.Status
)

// Weight-change profiles for UpdateConfig.Mode.
const (
	UpdateMixed    = update.ModeMixed
	UpdateIncrease = update.ModeIncrease
	UpdateDecrease = update.ModeDecrease
	UpdateNoop     = update.ModeNoop
)

// --- The Deployment/Session API: one constructor, one query path. ---

// Deploy builds a Deployment of g from functional options: the scheme
// server (WithMethod/WithParams, through the shared build cache when
// WithCache names the network), sharding (WithChannels), the live
// station(s) (WithLive), deterministic packet loss (WithLoss), dynamic
// updates (WithUpdates) and remote tuning over UDP (WithRemote). A live deployment goes on the air on
// Start (or lazily on first Session or RunFleet); Close takes it off.
func Deploy(g *Graph, opts ...DeployOption) (*Deployment, error) { return deploy.Deploy(g, opts...) }

// WithMethod picks the air-index scheme (default NR).
func WithMethod(m Method) DeployOption { return deploy.WithMethod(m) }

// WithParams tunes the scheme server's build parameters.
func WithParams(p Params) DeployOption { return deploy.WithParams(p) }

// WithChannels shards the broadcast cycle across k parallel channels
// (regions in contiguous kd order, an on-air directory on every channel);
// session radios hop. k == 1 (the default) is the plain single channel,
// bit-for-bit the unsharded broadcast.
func WithChannels(k int) DeployOption { return deploy.WithChannels(k) }

// WithLive puts the deployment on the air: a live broadcast station (one
// per channel, on a shared clock when sharded) streams the cycle to
// concurrently subscribed sessions, and RunFleet load-tests it. Without it
// the deployment replays the cycle offline — the paper's model.
func WithLive(cfg StationConfig) DeployOption { return deploy.WithLive(cfg) }

// WithLoss sets the deterministic Bernoulli packet-loss rate in [0,1) and
// the loss-pattern seed: the offline air's pattern, and the default
// pattern seed of live subscriptions.
func WithLoss(rate float64, seed int64) DeployOption { return deploy.WithLoss(rate, seed) }

// WithUpdates makes the broadcast dynamic: a versioned update manager owns
// the cycle, RunFleet churns arc weights per cfg while the fleet answers,
// and sessions transparently re-enter queries that straddle a cycle swap.
// Requires WithLive; with WithChannels the whole channel group swaps to
// each new version at one global tick.
func WithUpdates(cfg UpdateConfig) DeployOption { return deploy.WithUpdates(cfg) }

// WithCache keys the server build in the shared immutable build cache
// under the given canonical network name (e.g. "germany/0.05/42"):
// deployments naming the same (network, method, params) share one build.
func WithCache(network string) DeployOption { return deploy.WithCache(network) }

// WithDiskCache backs the build cache with a persistent disk tier rooted
// at dir (created if missing), budgeted to maxBytes (<= 0 means
// unbounded): keyed EB, NR and DJ builds persist their broadcast cycle
// and border precomputation, and a warm restart of the same deployment
// mmaps them back instead of re-running the Dijkstra storm. Requires
// WithCache to name the network; other methods still build cold.
func WithDiskCache(dir string, maxBytes int64) DeployOption {
	return deploy.WithDiskCache(dir, maxBytes)
}

// MergeFleetResults folds the results of N concurrently-run fleets —
// typically one per OS process, all tuned to the same wire broadcaster
// (cmd/airfleet) — into one controller-level result, with the fold a run
// applies to its own workers: counts, deterministic aggregates, loss totals
// and means merge exactly; Elapsed is the longest part and QPS is
// recomputed over it; every p50/p95/p99 tail, per-channel ones included, is
// read from the summed histograms, so N parts report what one run over the
// same samples would (within one histogram bucket, ~8%, of the exact
// percentile, however skewed the parts). Parts disagreeing on method, bit
// rate, channel count or result wire version, or carrying malformed
// histograms, are refused by part number.
func MergeFleetResults(parts []FleetResult) (FleetResult, error) { return fleet.MergeResults(parts) }

// WithRemote tunes the deployment's sessions to a remote wire broadcaster
// at addr (host:port, UDP) instead of a local transport: every query dials
// a WireReceiver subscription, like a device in range of a real station.
// The local build must match the remote one — Deploy probes the
// broadcaster and refuses a cycle-length or version mismatch. Excludes
// WithLive, WithChannels and WithUpdates; WithLoss injects extra
// deterministic loss on top of whatever the wire really drops.
func WithRemote(addr string) DeployOption { return deploy.WithRemote(addr) }

// --- Observability (DESIGN.md §10): the process-wide metrics registry and
// per-query flight recorder. One registry serves every deployment in the
// process — airserve's admin listener exports it on /metrics, offline runs
// read the same series via Observe. ---

// Observe snapshots every registered observability series: station
// broadcast and drop counters, cache traffic, fleet progress, update
// rebuilds. Identical to what a live airserve -admin exports on /metrics.
func Observe() []MetricPoint { return obs.Snapshot() }

// WriteMetrics renders the observability registry in the Prometheus text
// exposition format (version 0.0.4).
func WriteMetrics(w io.Writer) error { return obs.WriteProm(w) }

// MetricsHandler returns the /metrics HTTP handler a daemon mounts on its
// admin listener (cmd/airserve does with -admin).
func MetricsHandler() http.Handler { return obs.Handler() }

// NewQueryTrace returns a flight recorder keeping the last capacity span
// events; hand it to a session via SessionOptions.Trace and read it back
// with Events after the query. Recording is allocation-free and does not
// change any query metric.
func NewQueryTrace(capacity int) *QueryTrace { return obs.NewTrace(capacity) }

// --- Server-side building blocks. ---

// NewServer builds the named method's server for g.
func NewServer(m Method, g *Graph, p Params) (Server, error) {
	return build.Server(build.Request{Graph: g, Method: m, Params: p})
}

// GeneratePreset builds a synthetic stand-in for one of the paper's five
// road networks ("milan", "germany", "argentina", "india", "sanfrancisco"),
// or the out-of-core "continent" stressor (10.4M directed arcs), scaled by
// scale (1.0 = paper-sized), deterministically from seed.
func GeneratePreset(name string, scale float64, seed int64) (*Graph, error) {
	p, err := netgen.PresetByName(name)
	if err != nil {
		return nil, err
	}
	return p.Scaled(scale).Generate(seed)
}

// Generate builds a synthetic road network with the exact node and
// (undirected) edge counts.
func Generate(nodes, edges int, seed int64) (*Graph, error) {
	return netgen.Generate(nodes, edges, seed)
}

// ReadGraph decodes a network in the binary format written by WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Decode(r) }

// WriteGraph encodes a network in the binary network format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Encode(w, g) }

// ReadGraphText decodes the line-oriented text format ("v id x y" /
// "a tail head weight").
func ReadGraphText(r io.Reader) (*Graph, error) { return graph.DecodeText(r) }

// WriteGraphText encodes the line-oriented text format.
func WriteGraphText(w io.Writer, g *Graph) error { return graph.EncodeText(w, g) }

// ShortestPath computes the reference answer on the full network (no
// broadcasting): distance, path and settled-node count.
func ShortestPath(g *Graph, s, t NodeID) (float64, []NodeID, int) {
	return spath.PointToPoint(g, s, t)
}

// QueryFor builds a Query for two nodes of g (the client knows the node IDs
// and their coordinates).
func QueryFor(g *Graph, s, t NodeID) Query { return scheme.QueryFor(g, s, t) }

// EnergyJoules estimates a query's client-side energy at the given channel
// bit rate using the paper's WaveLAN/ARM power model (Section 3.1).
func EnergyJoules(m Metrics, bitsPerSecond int) float64 {
	return m.EnergyJoules(bitsPerSecond)
}

// HeapBudgetBytes is the reference device's application heap (8 MB), the
// feasibility threshold of the paper's Table 2.
const HeapBudgetBytes = metrics.HeapBudgetBytes

// Channel rates used throughout the paper's evaluation.
const (
	Rate2Mbps   = metrics.RateFast
	Rate384Kbps = metrics.RateSlow
)
