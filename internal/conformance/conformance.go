// Package conformance provides the shared correctness harness every scheme's
// tests run: queries answered on the air must match a reference Dijkstra on
// the full network, reported paths must be real paths of the reported cost,
// and lossless access latency must stay within the expected cycle bounds.
package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Network generates a deterministic test road network.
func Network(t testing.TB, nodes, edges int, seed int64) *graph.Graph {
	t.Helper()
	g, err := netgen.Generate(nodes, edges, seed)
	if err != nil {
		t.Fatalf("netgen: %v", err)
	}
	return g
}

// Config tunes a conformance run.
type Config struct {
	Loss      float64
	Queries   int
	Seed      int64
	MaxCycles float64 // 0 disables the latency check
	// PathOptional allows Dist-only results (HiTi does not expand paths).
	PathOptional bool
	// Channels > 1 runs queries over a multi-channel air (the cycle
	// sharded, clients hopping); 0 or 1 selects the plain single channel.
	Channels int
	// Cold makes every multi-channel radio bootstrap the directory from
	// the air instead of using a pre-cached copy.
	Cold bool
}

// Check runs random queries against srv over a (possibly lossy, possibly
// multi-channel) air and verifies them against the full-network reference.
func Check(t *testing.T, g *graph.Graph, srv scheme.Server, cfg Config) {
	t.Helper()
	var air transport.Transport
	var err error
	if cfg.Channels > 1 {
		plan, perr := multichannel.Build(srv.Cycle(), cfg.Channels, multichannel.PlanOptions{})
		if perr != nil {
			t.Fatalf("plan: %v", perr)
		}
		air, err = transport.NewOfflineAir(plan, cfg.Loss, cfg.Seed)
	} else {
		air, err = transport.NewOffline(srv.Cycle(), cfg.Loss, cfg.Seed)
	}
	if err != nil {
		t.Fatalf("air: %v", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	client := srv.NewClient()
	for i := 0; i < cfg.Queries; i++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		q := scheme.QueryFor(g, s, d)
		// Tune in anywhere in the cycle; a sharded air additionally at any
		// phase of the global clock, on any channel.
		var tune transport.Tune
		if cfg.Channels > 1 {
			tune = transport.Tune{Cursor: rng.Intn(2 * srv.Cycle().Len()), Channel: rng.Intn(cfg.Channels), Cold: cfg.Cold}
		} else {
			tune.Cursor = rng.Intn(srv.Cycle().Len())
		}
		att, err := air.Attach(tune)
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		tuner := att.Tuner()
		res, err := client.Query(tuner, q)
		att.Release(tuner.Pos())
		if err != nil {
			t.Fatalf("%s query %d (%d->%d): %v", srv.Name(), i, s, d, err)
		}
		want, _, _ := spath.PointToPoint(g, s, d)
		if !workload.SameDist(res.Dist, want) {
			t.Errorf("%s query %d (%d->%d): got dist %v, want %v", srv.Name(), i, s, d, res.Dist, want)
		}
		if res.Path == nil && !cfg.PathOptional && s != d {
			t.Errorf("%s query %d: missing path", srv.Name(), i)
		}
		if res.Path != nil && len(res.Path) > 0 {
			if res.Path[0] != s || res.Path[len(res.Path)-1] != d {
				t.Errorf("%s query %d: path endpoints %v..%v, want %v..%v",
					srv.Name(), i, res.Path[0], res.Path[len(res.Path)-1], s, d)
			}
			cost := spath.PathCost(g, res.Path)
			if !workload.SameDist(cost, res.Dist) {
				t.Errorf("%s query %d: path cost %v != reported dist %v", srv.Name(), i, cost, res.Dist)
			}
		}
		if cfg.Loss == 0 && cfg.MaxCycles > 0 && cfg.Channels <= 1 && tuner.ElapsedCycles() > cfg.MaxCycles {
			t.Errorf("%s query %d: lossless latency %.2f cycles exceeds %.2f",
				srv.Name(), i, tuner.ElapsedCycles(), cfg.MaxCycles)
		}
		if res.Metrics.TuningPackets <= 0 || res.Metrics.LatencyPackets <= 0 {
			t.Errorf("%s query %d: implausible metrics %+v", srv.Name(), i, res.Metrics)
		}
	}
}
