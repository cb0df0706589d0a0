package spath

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// randomGraph builds a random strongly connected graph (ring + chords).
func randomGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 4*n)
	for i := 0; i < n; i++ {
		b.AddNode(rng.Float64()*100, rng.Float64()*100)
	}
	for i := 0; i < n; i++ {
		b.AddArc(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*9)
	}
	for e := 0; e < 2*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddArc(graph.NodeID(u), graph.NodeID(v), 1+rng.Float64()*9)
		}
	}
	return b.MustBuild()
}

// floydWarshall is the brute-force reference.
func floydWarshall(g *graph.Graph) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for u := 0; u < n; u++ {
		dst, wgt := g.Out(graph.NodeID(u))
		for i, v := range dst {
			if wgt[i] < d[u][v] {
				d[u][v] = wgt[i]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

// TestDijkstraMatchesFloydWarshall is the core correctness property.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(20+int(seed)*5, seed)
		want := floydWarshall(g)
		for s := 0; s < g.NumNodes(); s += 3 {
			tree := Dijkstra(g, graph.NodeID(s))
			for v := 0; v < g.NumNodes(); v++ {
				if math.Abs(tree.Dist[v]-want[s][v]) > 1e-9 {
					t.Fatalf("seed %d: d(%d,%d) = %v, want %v", seed, s, v, tree.Dist[v], want[s][v])
				}
			}
		}
	}
}

func TestDijkstraReverse(t *testing.T) {
	g := randomGraph(30, 99)
	want := floydWarshall(g)
	tree := DijkstraReverse(g, 7)
	for v := 0; v < g.NumNodes(); v++ {
		if math.Abs(tree.Dist[v]-want[v][7]) > 1e-9 {
			t.Fatalf("reverse d(%d->7) = %v, want %v", v, tree.Dist[v], want[v][7])
		}
	}
}

func TestPathReconstruction(t *testing.T) {
	g := randomGraph(40, 5)
	tree := Dijkstra(g, 0)
	for v := 1; v < g.NumNodes(); v += 7 {
		path := tree.PathTo(graph.NodeID(v))
		if path[0] != 0 || path[len(path)-1] != graph.NodeID(v) {
			t.Fatalf("path endpoints %v", path)
		}
		if c := PathCost(g, path); math.Abs(c-tree.Dist[v]) > 1e-9 {
			t.Fatalf("path cost %v != dist %v", c, tree.Dist[v])
		}
	}
}

func TestPopOrderParentsFirst(t *testing.T) {
	g := randomGraph(50, 6)
	tree := Dijkstra(g, 3)
	seen := make(map[graph.NodeID]bool)
	for _, v := range tree.PopOrder {
		if p := tree.Parent[v]; p != graph.Invalid && !seen[p] {
			t.Fatalf("node %d popped before its parent %d", v, p)
		}
		seen[v] = true
	}
}

func TestPointToPointEqualsFullSearch(t *testing.T) {
	g := randomGraph(60, 7)
	for s := 0; s < 10; s++ {
		tree := Dijkstra(g, graph.NodeID(s))
		for v := 0; v < g.NumNodes(); v += 11 {
			d, path, _ := PointToPoint(g, graph.NodeID(s), graph.NodeID(v))
			if math.Abs(d-tree.Dist[v]) > 1e-9 {
				t.Fatalf("p2p d(%d,%d) = %v, want %v", s, v, d, tree.Dist[v])
			}
			if v != s && (len(path) == 0 || path[len(path)-1] != graph.NodeID(v)) {
				t.Fatalf("bad path to %d: %v", v, path)
			}
		}
	}
}

// TestPointToPointPooledScratch: searches share pooled dist/parent/heap
// arrays and reset only what they touched. Concurrent callers alternating
// between a large and a small graph must each get the full search's answer
// (a stale label from another call, or from the larger graph, would show as
// a short distance or a wrong path), and a scratch taken afterwards must be
// clean even though most searches stop with entries still on the heap.
func TestPointToPointPooledScratch(t *testing.T) {
	graphs := []*graph.Graph{randomGraph(90, 21), randomGraph(25, 22)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for q := 0; q < 60; q++ {
				g := graphs[q%2]
				s, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
				d, path, _ := PointToPoint(g, s, v)
				if want := Dijkstra(g, s).Dist[v]; d != want || PathCost(g, path) != want {
					t.Errorf("worker %d: p2p d(%d,%d) = %v over %v, want %v", w, s, v, d, path, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sc := acquireScratch(graphs[0].NumNodes())
	defer sc.release()
	if sc.heap.Len() != 0 || len(sc.touched) != 0 {
		t.Fatalf("pooled scratch not empty: %d heap entries, %d touched", sc.heap.Len(), len(sc.touched))
	}
	for v := range sc.dist {
		if !math.IsInf(sc.dist[v], 1) || sc.parent[v] != graph.Invalid {
			t.Fatalf("pooled scratch node %d: dist/parent %v/%d, want +Inf/%d", v, sc.dist[v], sc.parent[v], graph.Invalid)
		}
	}
}

func TestAStarWithEuclideanBound(t *testing.T) {
	// Euclidean distance underestimates when weights >= distance: scale
	// weights so the bound is admissible.
	rng := rand.New(rand.NewSource(8))
	n := 60
	b := graph.NewBuilder(n, 4*n)
	for i := 0; i < n; i++ {
		b.AddNode(rng.Float64()*100, rng.Float64()*100)
	}
	add := func(u, v int) {
		if u == v {
			return
		}
		dx := math.Hypot(0, 0)
		_ = dx
	}
	_ = add
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.AddArc(graph.NodeID(i), graph.NodeID(j), 1)
	}
	g := b.MustBuild()
	// With weight-1 ring arcs Euclidean bounds are NOT admissible; use the
	// zero bound (Dijkstra) versus a trivially admissible bound of 0.
	d1, _, _ := AStar(g, 0, 30, nil)
	d2, _, settled := AStar(g, 0, 30, func(graph.NodeID) float64 { return 0 })
	if d1 != d2 {
		t.Fatalf("zero-bound A* %v != Dijkstra %v", d2, d1)
	}
	if settled == 0 {
		t.Fatal("no work done")
	}
}

// TestAStarAdmissibleInconsistentBound: random bounds clamped below the
// true remaining distance are admissible but inconsistent; A* must stay
// exact (this is the Landmark-under-loss scenario).
func TestAStarAdmissibleInconsistentBound(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(40, 100+seed)
		rng := rand.New(rand.NewSource(seed))
		tgt := graph.NodeID(rng.Intn(g.NumNodes()))
		toT := DijkstraReverse(g, tgt)
		lb := func(v graph.NodeID) float64 {
			if rng.Intn(2) == 0 {
				return 0 // "lost vector"
			}
			return toT.Dist[v] * rng.Float64() // random admissible fraction
		}
		for s := 0; s < g.NumNodes(); s += 5 {
			want, _, _ := PointToPoint(g, graph.NodeID(s), tgt)
			got, path, _ := AStar(g, graph.NodeID(s), tgt, lb)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d s=%d: got %v, want %v", seed, s, got, want)
			}
			if got < math.Inf(1) && graph.NodeID(s) != tgt {
				if c := PathCost(g, path); math.Abs(c-got) > 1e-9 {
					t.Fatalf("path cost %v != %v", c, got)
				}
			}
		}
	}
}

func TestPathCostRejectsFakePaths(t *testing.T) {
	g := randomGraph(10, 9)
	if c := PathCost(g, []graph.NodeID{0, 5, 0, 9}); !math.IsInf(c, 1) {
		// unless those arcs happen to exist; build explicit non-edge
		t.Skip("random graph happened to contain the fake path")
	}
}

func TestSubNetworkDijkstra(t *testing.T) {
	g := randomGraph(50, 11)
	// Full copy into a SubNetwork must reproduce distances.
	sn := NewSubNetwork(g.NumNodes())
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		nd := g.Node(v)
		dst, wgt := g.Out(v)
		arcs := make([]graph.Arc, len(dst))
		for i := range dst {
			arcs[i] = graph.Arc{To: dst[i], Weight: wgt[i]}
		}
		sn.AddNode(v, nd.X, nd.Y, arcs)
	}
	for s := 0; s < 10; s++ {
		want, _, _ := PointToPoint(g, graph.NodeID(s), graph.NodeID(49))
		got := DijkstraNetwork(sn, graph.NodeID(s), 49)
		if math.Abs(got.Dist-want) > 1e-9 {
			t.Fatalf("subnetwork d(%d,49) = %v, want %v", s, got.Dist, want)
		}
	}
}

func TestSubNetworkGrowAndRemove(t *testing.T) {
	sn := NewSubNetwork(0)
	sn.AddArc(5, 9, 1.5)
	if sn.NumNodes() < 10 {
		t.Fatalf("ID space %d, want >= 10", sn.NumNodes())
	}
	if !sn.Has(5) {
		t.Fatal("node 5 should be present")
	}
	sn.Remove(5)
	if sn.Has(5) || len(sn.Arcs(5)) != 0 {
		t.Fatal("remove failed")
	}
}

func TestSubNetworkApproxBytes(t *testing.T) {
	sn := NewSubNetwork(10)
	sn.AddNode(1, 0, 0, []graph.Arc{{To: 2, Weight: 1}})
	if b := sn.ApproxBytes(); b != 24+12 {
		t.Fatalf("ApproxBytes %d, want 36", b)
	}
}

func TestDiameterDoubleSweep(t *testing.T) {
	g := randomGraph(60, 12)
	d := g.Diameter(Distances)
	if d <= 0 {
		t.Fatal("diameter should be positive")
	}
	// Lower bound property: no single-source eccentricity from node 0
	// exceeds... actually the double sweep only promises a lower bound on
	// the true diameter; check it is at least the direct eccentricity of
	// the second sweep's start.
	tree := Dijkstra(g, 0)
	for _, dist := range tree.Dist {
		if !math.IsInf(dist, 1) && dist > 0 && d < dist/2 {
			t.Fatalf("diameter %v implausibly small vs distance %v", d, dist)
		}
	}
}
