package core

import (
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/workload"
)

func testNetwork(t testing.TB, nodes, edges int, seed int64) *graph.Graph {
	t.Helper()
	g, err := netgen.Generate(nodes, edges, seed)
	if err != nil {
		t.Fatalf("netgen: %v", err)
	}
	return g
}

func checkQueries(t *testing.T, g *graph.Graph, srv scheme.Server, loss float64, nQueries int, seed int64) {
	t.Helper()
	ch, err := broadcast.NewChannel(srv.Cycle(), loss, seed)
	if err != nil {
		t.Fatalf("channel: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	client := srv.NewClient()
	for i := 0; i < nQueries; i++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		q := scheme.QueryFor(g, s, d)
		tuner := broadcast.NewTuner(ch, rng.Intn(srv.Cycle().Len()))
		res, err := client.Query(tuner, q)
		if err != nil {
			t.Fatalf("query %d (%d->%d): %v", i, s, d, err)
		}
		want, _, _ := spath.PointToPoint(g, s, d)
		if !workload.SameDist(res.Dist, want) {
			t.Errorf("query %d (%d->%d): got dist %v, want %v", i, s, d, res.Dist, want)
		}
		// The reported path must be a real path of the reported cost.
		if res.Path != nil {
			if res.Path[0] != s || res.Path[len(res.Path)-1] != d {
				t.Errorf("query %d: path endpoints %v..%v, want %v..%v",
					i, res.Path[0], res.Path[len(res.Path)-1], s, d)
			}
			cost := spath.PathCost(g, res.Path)
			if !workload.SameDist(cost, res.Dist) {
				t.Errorf("query %d: path cost %v != reported dist %v", i, cost, res.Dist)
			}
		}
		// The paper's "access latency does not exceed one broadcast cycle"
		// is measured from the index, not from tune-in; from tune-in the
		// worst case adds the wait for the first index (and, for EB, the
		// wrap back to regions preceding it). 1.7 cycles bounds both.
		if loss == 0 && tuner.ElapsedCycles() > 1.7 {
			t.Errorf("query %d: access latency %.2f cycles too high for a lossless channel",
				i, tuner.ElapsedCycles())
		}
	}
}

func TestEBCorrectness(t *testing.T) {
	g := testNetwork(t, 600, 900, 1)
	srv, err := NewEB(g, Options{Regions: 16, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, g, srv, 0, 40, 42)
}

func TestNRCorrectness(t *testing.T) {
	g := testNetwork(t, 600, 900, 2)
	srv, err := NewNR(g, Options{Regions: 16, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, g, srv, 0, 40, 43)
}

func TestEBWithLoss(t *testing.T) {
	g := testNetwork(t, 400, 600, 3)
	srv, err := NewEB(g, Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, g, srv, 0.05, 25, 44)
}

func TestNRWithLoss(t *testing.T) {
	g := testNetwork(t, 400, 600, 4)
	srv, err := NewNR(g, Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, g, srv, 0.05, 25, 45)
}

func TestEBMemoryBound(t *testing.T) {
	g := testNetwork(t, 500, 800, 5)
	srv, err := NewEB(g, Options{Regions: 16, Segments: true, SquareCells: true, MemoryBound: true})
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, g, srv, 0, 30, 46)
}

func TestNRMemoryBound(t *testing.T) {
	g := testNetwork(t, 500, 800, 6)
	srv, err := NewNR(g, Options{Regions: 16, Segments: true, SquareCells: true, MemoryBound: true})
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, g, srv, 0, 30, 47)
}
