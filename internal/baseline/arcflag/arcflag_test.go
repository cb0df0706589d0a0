package arcflag

import (
	"math"
	"testing"

	"repro/internal/conformance"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/pq"
	"repro/internal/precompute"
)

func TestArcFlagCorrectness(t *testing.T) {
	g := conformance.Network(t, 500, 750, 21)
	srv, err := New(g, Options{Regions: 16})
	if err != nil {
		t.Fatal(err)
	}
	conformance.Check(t, g, srv, conformance.Config{Queries: 25, Seed: 3, MaxCycles: 2.05})
}

func TestArcFlagWithLoss(t *testing.T) {
	g := conformance.Network(t, 300, 450, 22)
	srv, err := New(g, Options{Regions: 8})
	if err != nil {
		t.Fatal(err)
	}
	conformance.Check(t, g, srv, conformance.Config{Loss: 0.08, Queries: 15, Seed: 4})
}

func TestFlagsPruneSearch(t *testing.T) {
	g := conformance.Network(t, 600, 900, 23)
	srv, err := New(g, Options{Regions: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Flags must be selective: a decent fraction of (arc, region) bits unset.
	setBits, total := 0, 0
	for _, fv := range srv.flags {
		for _, w := range fv {
			for ; w != 0; w &= w - 1 {
				setBits++
			}
		}
		total += 16
	}
	frac := float64(setBits) / float64(total)
	if frac > 0.95 {
		t.Errorf("flag density %.2f: flags prune almost nothing", frac)
	}
	if frac < 0.05 {
		t.Errorf("flag density %.2f: implausibly sparse, likely a computation bug", frac)
	}
}

// reverseParents is the textbook heap loop over the reverse adjacency from
// b: parent[u] is u's successor on its shortest path to b.
func reverseParents(g *graph.Graph, b graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.NodeID, n)
	for i := range dist {
		dist[i], parent[i] = math.Inf(1), graph.Invalid
	}
	h := pq.New(n)
	dist[b] = 0
	h.Push(int32(b), 0)
	for h.Len() > 0 {
		item, d := h.Pop()
		v := graph.NodeID(item)
		src, wgt := g.In(v)
		for i, u := range src {
			if nd := d + wgt[i]; nd < dist[u] {
				dist[u], parent[u] = nd, v
				h.PushOrDecrease(int32(u), nd)
			}
		}
	}
	return parent
}

// TestFlagsMatchHeapLoop: on germany@0.05 every arc's flag vector equals
// the one computed from the heap loop's backward trees, the way the flags
// were computed before the chain-rule kernel.
func TestFlagsMatchHeapLoop(t *testing.T) {
	p, err := netgen.PresetByName("germany")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Scaled(0.05).Generate(2010)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{Regions: 16})
	if err != nil {
		t.Fatal(err)
	}
	regions := precompute.BuildRegions(g, srv.kd)
	want := make([]uint64, g.NumArcs()) // 16 regions: one word per arc
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		dst, _ := g.Out(u)
		for i, v := range dst {
			want[g.OutOffset(u)+i] |= 1 << regions.Assign[v]
		}
	}
	for r, borders := range regions.Borders {
		for _, b := range borders {
			parent := reverseParents(g, b)
			for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
				dst, _ := g.Out(u)
				for i, v := range dst {
					if p := parent[u]; p != graph.Invalid && v == p {
						want[g.OutOffset(u)+i] |= 1 << r
					}
				}
			}
		}
	}
	for arc, flags := range srv.flags {
		if flags[0] != want[arc] {
			from, to, _ := g.ArcAt(arc)
			t.Fatalf("arc %d (%d->%d): flags %016b, heap loop %016b", arc, from, to, flags[0], want[arc])
		}
	}
}
