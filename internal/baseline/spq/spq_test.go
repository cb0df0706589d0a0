package spq

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/conformance"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/pq"
)

func TestSPQCorrectness(t *testing.T) {
	g := conformance.Network(t, 300, 450, 51)
	srv, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	conformance.Check(t, g, srv, conformance.Config{Queries: 20, Seed: 9, MaxCycles: 2.05})
}

func TestSPQWithLoss(t *testing.T) {
	g := conformance.Network(t, 200, 300, 52)
	srv, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	conformance.Check(t, g, srv, conformance.Config{Loss: 0.08, Queries: 10, Seed: 10})
}

func TestQuadtreeRoundTrip(t *testing.T) {
	// A 2x2 point set with distinct colors must look up exactly.
	colors := []int16{0, 1, 2, 3}
	xs := []float64{0, 10, 0, 10}
	ys := []float64{0, 0, 10, 10}
	pts := []int32{0, 1, 2, 3}
	buf := buildQuad(nil, pts, colors, xs, ys, 0, 0, 11, 11, 0)
	for i := range pts {
		got := lookupQuad(buf, xs[i], ys[i], 0, 0, 11, 11)
		if got != uint8(colors[i]) {
			t.Errorf("point %d: color %d, want %d", i, got, colors[i])
		}
	}
}

func TestQuadtreeUniform(t *testing.T) {
	colors := []int16{5, 5, 5}
	xs := []float64{1, 2, 3}
	ys := []float64{1, 2, 3}
	buf := buildQuad(nil, []int32{0, 1, 2}, colors, xs, ys, 0, 0, 4, 4, 0)
	if len(buf) != 1 || buf[0] != 5 {
		t.Errorf("uniform set should compress to one leaf, got %v", buf)
	}
}

func TestSPQCycleDominatedByTrees(t *testing.T) {
	g := conformance.Network(t, 400, 600, 53)
	srv, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	treeBytes := 0
	for _, tr := range srv.trees {
		treeBytes += len(tr)
	}
	if treeBytes == 0 {
		t.Fatal("no quadtrees built")
	}
	// Paper Table 1: SPQ's cycle is several times DJ's. The aux section
	// must exceed the data section.
	var aux, data int
	for _, sec := range srv.Cycle().Sections {
		switch sec.Label {
		case "quadtrees":
			aux = sec.N
		case "network":
			data = sec.N
		}
	}
	if aux <= data {
		t.Errorf("quadtrees (%d pkts) should dominate network data (%d pkts)", aux, data)
	}
}

// popOrderColours is the first-hop colouring SPQ ran before the chain-rule
// kernel, kept as the oracle for the production path: the textbook heap
// loop from v, then a pass over its pop order in which each node inherits
// its parent's first hop.
func popOrderColours(g *graph.Graph, v graph.NodeID, colors []int16) {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.NodeID, n)
	for i := range dist {
		dist[i], parent[i], colors[i] = math.Inf(1), graph.Invalid, -1
	}
	var order []graph.NodeID
	h := pq.New(n)
	dist[v] = 0
	h.Push(int32(v), 0)
	for h.Len() > 0 {
		item, d := h.Pop()
		u := graph.NodeID(item)
		order = append(order, u)
		dst, wgt := g.Out(u)
		for i, w := range dst {
			if nd := d + wgt[i]; nd < dist[w] {
				dist[w], parent[w] = nd, u
				h.PushOrDecrease(int32(w), nd)
			}
		}
	}
	dst, _ := g.Out(v)
	for _, u := range order {
		if u == v {
			continue
		}
		if p := parent[u]; p == v {
			for i, d := range dst {
				if d == u {
					colors[u] = int16(i)
					break
				}
			}
		} else {
			colors[u] = colors[p]
		}
	}
}

// TestTreesMatchPopOrderColouring: on germany@0.05, a network
// TestMethodGolden does not build SPQ on, every node's encoded quadtree
// equals the one the pop-order colouring of the heap loop's tree encodes.
func TestTreesMatchPopOrderColouring(t *testing.T) {
	p, err := netgen.PresetByName("germany")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Scaled(0.05).Generate(2010)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	minX, minY, maxX, maxY := g.Bounds()
	xs, ys := make([]float64, n), make([]float64, n)
	for i, nd := range g.Nodes() {
		xs[i], ys[i] = float64(float32(nd.X)), float64(float32(nd.Y))
	}
	colors := make([]int16, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		popOrderColours(g, v, colors)
		var pts []int32
		for u := 0; u < n; u++ {
			if u != int(v) && colors[u] >= 0 {
				pts = append(pts, int32(u))
			}
		}
		want := buildQuad(nil, pts, colors, xs, ys,
			float64(float32(minX)), float64(float32(minY)),
			float64(float32(maxX))+1, float64(float32(maxY))+1, 0)
		if !bytes.Equal(srv.trees[v], want) {
			t.Fatalf("node %d of %d: quadtree differs from the pop-order colouring's (%d bytes, want %d)", v, n, len(srv.trees[v]), len(want))
		}
	}
}
