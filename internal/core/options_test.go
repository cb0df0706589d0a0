package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// TestSegmentationSavesTuning verifies the Section 4.1 claim that skipping
// the local segments of transit regions reduces tuning time (the paper
// reports ~20%) without affecting correctness.
func TestSegmentationSavesTuning(t *testing.T) {
	g := testNetwork(t, 1200, 1350, 21)
	on, err := NewEB(g, Options{Regions: 16, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewEB(g, Options{Regions: 16, Segments: false, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(srv scheme.Server) int {
		ch, _ := broadcast.NewChannel(srv.Cycle(), 0, 3)
		rng := rand.New(rand.NewSource(3))
		client := srv.NewClient()
		total := 0
		for i := 0; i < 25; i++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			d := graph.NodeID(rng.Intn(g.NumNodes()))
			tuner := broadcast.NewTuner(ch, rng.Intn(srv.Cycle().Len()))
			res, err := client.Query(tuner, scheme.QueryFor(g, s, d))
			if err != nil {
				t.Fatal(err)
			}
			want, _, _ := spath.PointToPoint(g, s, d)
			if math.Abs(res.Dist-want) > 1e-3*(1+want) {
				t.Fatalf("dist %v, want %v", res.Dist, want)
			}
			total += res.Metrics.TuningPackets
		}
		return total
	}
	tOn, tOff := sum(on), sum(off)
	if tOn >= tOff {
		t.Errorf("segmentation should reduce tuning: on=%d off=%d", tOn, tOff)
	}
}

// TestSameRegionQueries exercises the diagonal-UB extension: source and
// target in the same region, including paths that leave and re-enter it.
func TestSameRegionQueries(t *testing.T) {
	g := testNetwork(t, 800, 900, 22)
	for _, build := range []func() (scheme.Server, error){
		func() (scheme.Server, error) {
			return NewEB(g, Options{Regions: 16, Segments: true, SquareCells: true})
		},
		func() (scheme.Server, error) {
			return NewNR(g, Options{Regions: 16, Segments: true, SquareCells: true})
		},
	} {
		srv, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ch, _ := broadcast.NewChannel(srv.Cycle(), 0, 5)
		client := srv.NewClient()
		// Collect same-region pairs.
		var assign []int
		switch s := srv.(type) {
		case *EB:
			assign = s.Regions().Assign
		case *NR:
			assign = s.Regions().Assign
		}
		rng := rand.New(rand.NewSource(6))
		checked := 0
		for tries := 0; tries < 4000 && checked < 15; tries++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			d := graph.NodeID(rng.Intn(g.NumNodes()))
			if s == d || assign[s] != assign[d] {
				continue
			}
			checked++
			tuner := broadcast.NewTuner(ch, rng.Intn(srv.Cycle().Len()))
			res, err := client.Query(tuner, scheme.QueryFor(g, s, d))
			if err != nil {
				t.Fatal(err)
			}
			want, _, _ := spath.PointToPoint(g, s, d)
			if math.Abs(res.Dist-want) > 1e-3*(1+want) {
				t.Errorf("%s same-region %d->%d: got %v, want %v", srv.Name(), s, d, res.Dist, want)
			}
		}
		if checked == 0 {
			t.Fatal("no same-region pairs found")
		}
	}
}

// TestIdenticalEndpoints: s == t must answer 0 immediately.
func TestIdenticalEndpoints(t *testing.T) {
	g := testNetwork(t, 300, 340, 23)
	for _, mb := range []bool{false, true} {
		srv, err := NewNR(g, Options{Regions: 8, Segments: true, SquareCells: true, MemoryBound: mb})
		if err != nil {
			t.Fatal(err)
		}
		ch, _ := broadcast.NewChannel(srv.Cycle(), 0, 1)
		res, err := srv.NewClient().Query(broadcast.NewTuner(ch, 7), scheme.QueryFor(g, 42, 42))
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist != 0 {
			t.Errorf("mb=%v: dist %v for identical endpoints", mb, res.Dist)
		}
	}
}

// TestNRNeverExceedsEBRegions: NR's NEED set is contained in EB's elliptic
// region set for the same partitioning — the structural reason NR's tuning
// is lower (Section 5: "the client listens only to a subset of the regions
// necessary in EB").
func TestNRNeverExceedsEBRegions(t *testing.T) {
	g := testNetwork(t, 1000, 1120, 24)
	eb, err := NewEB(g, Options{Regions: 16, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	bd := eb.border
	reg := eb.Regions()
	n := reg.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			need := bd.Need(i, j, n)
			ub := bd.MaxDist[i][j]
			for r := 0; r < n; r++ {
				if !need.Has(r) || r == i || r == j {
					continue
				}
				if bd.MinDist[i][r]+bd.MinDist[r][j] > ub+1e-6 {
					t.Fatalf("NEED(%d,%d) contains region %d that EB's ellipse would prune", i, j, r)
				}
			}
		}
	}
}

// TestHeavyLossStillExact runs EB and NR at a brutal 20% loss rate; answers
// must remain exact even though many index and data packets need multiple
// cycles to arrive.
func TestHeavyLossStillExact(t *testing.T) {
	g := testNetwork(t, 400, 450, 25)
	for _, build := range []func() (scheme.Server, error){
		func() (scheme.Server, error) { return NewEB(g, Options{Regions: 8, Segments: true, SquareCells: true}) },
		func() (scheme.Server, error) { return NewNR(g, Options{Regions: 8, Segments: true, SquareCells: true}) },
	} {
		srv, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ch, err := broadcast.NewChannel(srv.Cycle(), 0.20, 77)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		client := srv.NewClient()
		for i := 0; i < 10; i++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			d := graph.NodeID(rng.Intn(g.NumNodes()))
			tuner := broadcast.NewTuner(ch, rng.Intn(srv.Cycle().Len()))
			res, err := client.Query(tuner, scheme.QueryFor(g, s, d))
			if err != nil {
				t.Fatalf("%s: %v", srv.Name(), err)
			}
			want, _, _ := spath.PointToPoint(g, s, d)
			if math.Abs(res.Dist-want) > 1e-3*(1+want) {
				t.Errorf("%s at 20%% loss: got %v, want %v", srv.Name(), res.Dist, want)
			}
		}
	}
}

// TestCycleStructure sanity-checks the assembled EB cycle: m index copies
// between region sections, never cutting a region's data.
func TestCycleStructure(t *testing.T) {
	g := testNetwork(t, 900, 1000, 26)
	srv, err := NewEB(g, Options{Regions: 16, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	cy := srv.Cycle()
	idxSections := 0
	seenRegions := map[int]bool{}
	for _, sec := range cy.Sections {
		if sec.Kind == 1 { // packet.KindIndex
			idxSections++
		} else if sec.Region >= 0 {
			seenRegions[sec.Region] = true
		}
	}
	if idxSections < 1 {
		t.Fatal("no index copies in EB cycle")
	}
	if len(seenRegions) != 16 {
		t.Fatalf("cycle covers %d regions, want 16", len(seenRegions))
	}
	// NR: exactly one local index per region.
	nr, err := NewNR(g, Options{Regions: 16, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	nrIdx := 0
	for _, sec := range nr.Cycle().Sections {
		if sec.Kind == 1 {
			nrIdx++
		}
	}
	if nrIdx != 16 {
		t.Fatalf("NR cycle has %d local indexes, want 16", nrIdx)
	}
}
