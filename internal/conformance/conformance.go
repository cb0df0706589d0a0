// Package conformance provides the shared correctness harness every scheme's
// tests run: queries answered on the air must match a reference Dijkstra on
// the full network, reported paths must be the reference path (or tie it
// exactly) at the reported cost, and lossless access latency must stay
// within the expected cycle bounds.
package conformance

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
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
	// PathOptional allows Dist-only results (HiTi answers distances only).
	PathOptional bool
	// Channels is the offline air's channel count: 0 or 1 replays the
	// paper's single channel (the air at K=1), more shard the cycle across
	// channels and clients hop.
	Channels int
	// Cold makes every multi-channel radio bootstrap the directory from
	// the air instead of using a pre-cached copy.
	Cold bool
}

// Check runs random queries against srv over a (possibly lossy, possibly
// multi-channel) air and verifies them against the full-network reference.
func Check(t *testing.T, g *graph.Graph, srv scheme.Server, cfg Config) {
	t.Helper()
	air, err := transport.NewOfflineAir(srv.Cycle(), max(cfg.Channels, 1), cfg.Loss, cfg.Seed)
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
		want, wantPath, _ := spath.PointToPoint(g, s, d)
		if msg := wrongAnswer(g, s, d, res, want, wantPath, cfg.PathOptional); msg != "" {
			t.Errorf("%s query %d (%d->%d): %s", srv.Name(), i, s, d, msg)
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

// wrongAnswer says what is wrong with res as the answer from s to d, or ""
// if nothing is: the distance must be the reference's, and a returned path
// must run from s to d at that distance and be the reference path, or tie
// it exactly in float64 cost (DESIGN.md §7). pathOptional admits no path.
func wrongAnswer(g *graph.Graph, s, d graph.NodeID, res scheme.Result, want float64, wantPath []graph.NodeID, pathOptional bool) string {
	if !workload.SameDist(res.Dist, want) {
		return fmt.Sprintf("got dist %v, want %v", res.Dist, want)
	}
	if len(res.Path) == 0 {
		if !pathOptional && s != d {
			return "missing path"
		}
		return ""
	}
	if res.Path[0] != s || res.Path[len(res.Path)-1] != d {
		return fmt.Sprintf("path endpoints %v..%v, want %v..%v", res.Path[0], res.Path[len(res.Path)-1], s, d)
	}
	cost := spath.PathCost(g, res.Path)
	if !workload.SameDist(cost, res.Dist) {
		return fmt.Sprintf("path cost %v != reported dist %v", cost, res.Dist)
	}
	if refCost := spath.PathCost(g, wantPath); !slices.Equal(res.Path, wantPath) && cost != refCost {
		return fmt.Sprintf("path %v costs %v, reference path %v costs %v", res.Path, cost, wantPath, refCost)
	}
	return ""
}
