package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/broadcast"
	"repro/internal/multichannel"
	"repro/internal/servercache"
	"repro/internal/update"
	"repro/internal/wire"
)

// lossRate is the packet loss the lossy workloads inject: the paper's
// Section 6.2 experiments centre on a few percent.
const lossRate = 0.05

// updateBatch is the number of arcs one traffic update re-weights (the
// repo's churn default).
const updateBatch = 25

// spec describes one workload: what it deploys and how hard it is driven.
type spec struct {
	name   string
	why    string
	method repro.Method
	// clients is the closed-loop client count. Live and wire workloads use
	// one: the station goroutine is the second thread on a 2-core runner.
	clients int
	// perRound is the number of queries one round poses, over all clients.
	perRound int
	// build wires the deployment the queries run on from the shared build
	// options (method, cache key, disk tier); the build itself is a cache hit.
	build func(ctx context.Context, g *repro.Graph, in *inputs, base []repro.DeployOption) (*rig, error)
}

// specs lists the workloads in the order -workload all runs them.
var specs = []spec{
	{
		name:    "offline_replay",
		why:     "NR on the paper's offline single channel at 5% loss: the client layers (tuner, decode, collect, search) do all the work",
		method:  repro.NR,
		clients: 2, perRound: 1000,
		build: buildOffline,
	},
	{
		name:    "live_k4",
		why:     "EB through a live 4-channel station group at 5% loss: station ticks, exact subscriptions and channel hopping carry most of the time",
		method:  repro.EB,
		clients: 1, perRound: 300,
		build: buildLiveK4,
	},
	{
		name:    "wire_loopback",
		why:     "NR over loopback UDP with no injected loss: framing, CRC and the per-query dial dominate; the station feeds per-remote pumps",
		method:  repro.NR,
		clients: 1, perRound: 200,
		build: buildWire,
	},
	{
		name:    "build_update",
		why:     "the operator path: every round applies a 25-arc traffic update, swaps the live cycle and answers on the new version",
		method:  repro.NR,
		clients: 1, perRound: 250,
		build: buildUpdate,
	},
}

// with returns base followed by extra, never aliasing base.
func with(base []repro.DeployOption, extra ...repro.DeployOption) []repro.DeployOption {
	return append(append([]repro.DeployOption(nil), base...), extra...)
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rig is a workload's system under test, ready to answer queries.
type rig struct {
	dep *repro.Deployment // where client sessions open
	// graph returns the network version answers are currently computed on
	// (it advances on build_update).
	graph func() *repro.Graph
	// prepare, when set, runs before each round outside the query window
	// and reports the rebuild it performed (build_update's Apply + Swap).
	prepare func() (prep, error)
	// attach opens client c's feed for one traced query the way
	// deploy.Session.attach does for this shape, with the feed wrapped in a
	// timing decorator. Until the transport seam of ROADMAP item 2 exists
	// this duplicates that switch, one arm per workload.
	attach func(c *tracedClient) (*broadcast.Tuner, *feedTimer, func(), error)
	// dynamic marks a versioned broadcast: traced queries go through
	// update.Query like Session.queryOnce does.
	dynamic bool
	close   func()
}

// prep is what a round's prepare step measured.
type prep struct {
	rebuild   time.Duration // Manager.Apply
	swapToAir time.Duration // Station.Swap until the new version is on the air
}

// open returns one session per client. Sessions are reopened every round
// with the same tune-in and seed, so an offline round replays exactly.
func (r *rig) open(ctx context.Context, in *inputs, clients int) ([]*repro.Session, error) {
	out := make([]*repro.Session, clients)
	for c := range out {
		s, err := r.dep.Session(ctx, repro.SessionOptions{TuneIn: in.tuneIn[c], Seed: in.sessSeed[c]})
		if err != nil {
			return nil, fmt.Errorf("open session %d: %w", c, err)
		}
		out[c] = s
	}
	return out, nil
}

func buildOffline(ctx context.Context, g *repro.Graph, in *inputs, base []repro.DeployOption) (*rig, error) {
	d, err := repro.Deploy(g, with(base, repro.WithLoss(lossRate, in.lossSeed))...)
	if err != nil {
		return nil, err
	}
	ch, err := broadcast.NewChannel(d.Cycle(), lossRate, in.lossSeed)
	if err != nil {
		return nil, err
	}
	return &rig{
		dep:   d,
		graph: func() *repro.Graph { return g },
		attach: func(c *tracedClient) (*broadcast.Tuner, *feedTimer, func(), error) {
			f := &timedChannel{ch: ch}
			t := broadcast.NewFeedTuner(f, c.cursor)
			return t, &f.feedTimer, func() { c.cursor = t.Pos() }, nil
		},
		close: d.Close,
	}, nil
}

func buildLiveK4(ctx context.Context, g *repro.Graph, in *inputs, base []repro.DeployOption) (*rig, error) {
	d, err := repro.Deploy(g, with(base,
		repro.WithChannels(4), repro.WithLive(repro.StationConfig{}), repro.WithLoss(lossRate, in.lossSeed))...)
	if err != nil {
		return nil, err
	}
	if err := d.Start(ctx); err != nil {
		return nil, err
	}
	return &rig{
		dep:   d,
		graph: func() *repro.Graph { return g },
		attach: func(c *tracedClient) (*broadcast.Tuner, *feedTimer, func(), error) {
			rx, err := d.MultiStation().Subscribe(lossRate, c.rng.Int63(), multichannel.RxOptions{})
			if err != nil {
				return nil, nil, nil, err
			}
			f := &timedRx{rx: rx}
			return broadcast.NewFeedTuner(f, rx.StartPos()), &f.feedTimer, rx.Close, nil
		},
		close: d.Close,
	}, nil
}

func buildWire(ctx context.Context, g *repro.Graph, in *inputs, base []repro.DeployOption) (*rig, error) {
	srv, err := repro.Deploy(g, with(base, repro.WithLive(repro.StationConfig{}))...)
	if err != nil {
		return nil, err
	}
	b, err := srv.ServeWire(ctx, "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	stop := func() { b.Close(); srv.Close() }
	addr := b.Addr().String()
	// The device side: a second deployment of the same build (a servercache
	// hit on the shared key) tuned to the broadcaster's socket.
	d, err := repro.Deploy(g, with(base, repro.WithRemote(addr))...)
	if err != nil {
		stop()
		return nil, err
	}
	return &rig{
		dep:   d,
		graph: func() *repro.Graph { return g },
		attach: func(c *tracedClient) (*broadcast.Tuner, *feedTimer, func(), error) {
			rx, err := wire.Dial(addr, wire.ReceiverOptions{Seed: c.rng.Int63(), Redial: 2})
			if err != nil {
				return nil, nil, nil, err
			}
			f := &timedReceiver{rx: rx}
			return broadcast.NewFeedTuner(f, rx.Start()), &f.feedTimer, rx.Close, nil
		},
		close: stop,
	}, nil
}

func buildUpdate(ctx context.Context, g *repro.Graph, in *inputs, base []repro.DeployOption) (*rig, error) {
	d, err := repro.Deploy(g, with(base,
		repro.WithLive(repro.StationConfig{}), repro.WithUpdates(repro.UpdateConfig{}), repro.WithLoss(lossRate, in.lossSeed))...)
	if err != nil {
		return nil, err
	}
	if err := d.Start(ctx); err != nil {
		return nil, err
	}
	return &rig{
		dep:     d,
		dynamic: true,
		graph:   d.Manager().Graph,
		prepare: func() (prep, error) { return applyAndSwap(d, in.batch(updateBatch)) },
		attach: func(c *tracedClient) (*broadcast.Tuner, *feedTimer, func(), error) {
			sub, err := d.Station().Subscribe(lossRate, c.rng.Int63())
			if err != nil {
				return nil, nil, nil, err
			}
			f := &timedSub{sub: sub}
			return broadcast.NewFeedTuner(f, sub.Start()), &f.feedTimer, sub.Close, nil
		},
		close: d.Close,
	}, nil
}

// applyAndSwap rebuilds the broadcast for one update batch and puts the new
// version on the air.
func applyAndSwap(d *repro.Deployment, batch []arcScale) (prep, error) {
	var p prep
	mgr, st := d.Manager(), d.Station()
	ups := resolve(mgr.Graph(), batch)
	began := time.Now()
	b, err := mgr.Apply(ups)
	if err != nil {
		return p, fmt.Errorf("apply update: %w", err)
	}
	p.rebuild = time.Since(began)

	began = time.Now()
	if err := swapUnderListener(st, b.Cycle); err != nil {
		return p, err
	}
	p.swapToAir = time.Since(began)
	return p, nil
}

// swapUnderListener swaps cycle c onto the station and returns once it is
// on the air. A swap lands on a cycle boundary, and an idle virtual-clock
// station only crawls towards it, so a throwaway listener drains the air
// until the swap is applied.
func swapUnderListener(st *repro.Station, c *broadcast.Cycle) error {
	applied, err := st.Swap(c)
	if err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	sub, err := st.Subscribe(0, 0)
	if err != nil {
		return fmt.Errorf("swap drain: %w", err)
	}
	defer sub.Close()
	for pos := sub.Start(); ; pos++ {
		select {
		case _, ok := <-applied:
			if !ok {
				return fmt.Errorf("swap abandoned: station left the air")
			}
			if v := st.Version(); v != c.Version {
				return fmt.Errorf("station on version %d after swap to %d", v, c.Version)
			}
			return nil
		default:
			sub.At(pos)
		}
	}
}

// buildTimes is one set-up repetition's measurements.
type buildTimes struct {
	cold   time.Duration
	warmMs []float64
}

// warmReps is how many times one set-up repeats the warm deploy: it takes
// milliseconds, so a single sample is mostly scheduler noise.
const warmReps = 5

// setUp performs one full set-up of a workload: a cold build that persists
// to the disk tier, the wiring of the deployment the queries run on (a
// cache hit on that build), and a warm rebuild of the same key from disk.
// key must be new to the process, so the cold build really is cold.
func setUp(ctx context.Context, sp spec, g *repro.Graph, in *inputs, key, cacheDir string) (*rig, buildTimes, error) {
	var bt buildTimes
	base := []repro.DeployOption{
		repro.WithMethod(sp.method), repro.WithCache(key), repro.WithDiskCache(cacheDir, 0),
	}
	began := time.Now()
	cold, err := repro.Deploy(g, base...)
	if err != nil {
		return nil, bt, fmt.Errorf("%s: cold deploy: %w", sp.name, err)
	}
	bt.cold = time.Since(began)

	r, err := sp.build(ctx, g, in, base)
	if err != nil {
		return nil, bt, fmt.Errorf("%s: wire deployment: %w", sp.name, err)
	}

	// A restarted operator process: the in-memory cache is gone, the disk
	// tier is not. The rig keeps the cold build; the warm one replaces it
	// under the key.
	for i := 0; i < warmReps; i++ {
		servercache.Flush()
		began = time.Now()
		warm, err := repro.Deploy(g, base...)
		if err != nil {
			r.close()
			return nil, bt, fmt.Errorf("%s: warm deploy: %w", sp.name, err)
		}
		bt.warmMs = append(bt.warmMs, float64(time.Since(began))/float64(time.Millisecond))
		if warm.Len() != cold.Len() {
			r.close()
			return nil, bt, fmt.Errorf("%s: warm cycle has %d packets, cold %d", sp.name, warm.Len(), cold.Len())
		}
	}
	return r, bt, nil
}

// rebuildOnce measures one update rebuild on a workload that does not
// otherwise update: a dynamic deployment of the cached build applies one
// batch. It never goes on the air.
func rebuildOnce(sp spec, g *repro.Graph, in *inputs, key string) (time.Duration, error) {
	d, err := repro.Deploy(g, repro.WithMethod(sp.method), repro.WithCache(key),
		repro.WithLive(repro.StationConfig{}), repro.WithUpdates(repro.UpdateConfig{}))
	if err != nil {
		return 0, err
	}
	defer d.Close()
	ups := resolve(g, in.batch(updateBatch))
	began := time.Now()
	if _, err := d.Manager().Apply(ups); err != nil {
		return 0, err
	}
	return time.Since(began), nil
}

// tracedClient is the per-client state a traced round keeps in place of a
// Session: the scheme client, the offline cursor and the loss-seed stream.
type tracedClient struct {
	client repro.Client
	cursor int
	rng    *rand.Rand
}

func newTracedClient(r *rig, in *inputs, c int) *tracedClient {
	return &tracedClient{
		client: r.dep.Server().NewClient(),
		cursor: in.tuneIn[c],
		rng:    rand.New(rand.NewSource(in.sessSeed[c])),
	}
}

// query answers one query on an attached tuner the way Session.queryOnce
// does.
func (c *tracedClient) query(r *rig, t *broadcast.Tuner, q repro.Query) (res repro.Result, err error) {
	defer broadcast.RecoverCancel(&err)
	if r.dynamic {
		res, _, err = update.Query(c.client, t, q)
		return res, err
	}
	return c.client.Query(t, q)
}
