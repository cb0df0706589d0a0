package hiti

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/packet"
)

func TestHiTiCorrectness(t *testing.T) {
	g := conformance.Network(t, 500, 750, 41)
	srv, err := New(g, Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	conformance.Check(t, g, srv, conformance.Config{Queries: 25, Seed: 7, MaxCycles: 3.0, PathOptional: true})
}

func TestHiTiWithLoss(t *testing.T) {
	g := conformance.Network(t, 300, 450, 42)
	srv, err := New(g, Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	conformance.Check(t, g, srv, conformance.Config{Loss: 0.08, Queries: 12, Seed: 8, PathOptional: true})
}

func TestHiTiIndexDominatesCycle(t *testing.T) {
	g := conformance.Network(t, 600, 900, 43)
	srv, err := New(g, Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx := srv.Cycle().Sections[0] // the index leads the cycle
	if idx.Kind != packet.KindIndex || idx.N == 0 {
		t.Fatalf("cycle leads with %+v, want the HiTi index", idx)
	}
	// The paper's Table 1: HiTi's extra information is several times the
	// network itself. At minimum the index must be a large fraction.
	frac := float64(idx.N) / float64(srv.Cycle().Len())
	if frac < 0.3 {
		t.Errorf("HiTi index is only %.0f%% of the cycle; expected it to dominate", frac*100)
	}
}

func TestMemberSetTilesGrid(t *testing.T) {
	for _, tc := range []struct{ s, t, depth int }{
		{0, 63, 3}, {0, 0, 3}, {5, 6, 3}, {0, 3, 2}, {10, 37, 3},
	} {
		side := 1 << tc.depth
		members := memberSet(tc.s, tc.t, side, tc.depth)
		for cell := 0; cell < side*side; cell++ {
			covering := 0
			for l := 0; l <= tc.depth; l++ {
				if members[subKey(l, subAt(cell, side, l))] {
					covering++
				}
			}
			if covering != 1 {
				t.Fatalf("depth %d, s=%d t=%d: cell %d covered by %d members, want exactly 1",
					tc.depth, tc.s, tc.t, cell, covering)
			}
		}
	}
}
