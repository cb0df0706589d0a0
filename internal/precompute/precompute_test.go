package precompute

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/pq"
	"repro/internal/spath"
)

func setup(t testing.TB, nodes, edges, regions int, seed int64) (*graph.Graph, *Regions, *BorderData) {
	t.Helper()
	g, err := netgen.Generate(nodes, edges, seed)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := partition.NewKDTree(g, regions)
	if err != nil {
		t.Fatal(err)
	}
	r := BuildRegions(g, kd)
	return g, r, Compute(g, r)
}

// TestMinMaxAgainstBruteForce recomputes the inter-region min/max distances
// pair by pair with independent Dijkstra runs.
func TestMinMaxAgainstBruteForce(t *testing.T) {
	g, r, bd := setup(t, 300, 340, 4, 1)
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.N; j++ {
			if i == j {
				continue
			}
			mn, mx := math.Inf(1), 0.0
			for _, b := range r.Borders[i] {
				tree := dijkstra(g, b)
				for _, b2 := range r.Borders[j] {
					if b2 == b {
						continue
					}
					d := tree.Dist[b2]
					mn = math.Min(mn, d)
					mx = math.Max(mx, d)
				}
			}
			if math.Abs(bd.MinDist[i][j]-mn) > 1e-9 {
				t.Errorf("MinDist[%d][%d] = %v, want %v", i, j, bd.MinDist[i][j], mn)
			}
			if math.Abs(bd.MaxDist[i][j]-mx) > 1e-9 {
				t.Errorf("MaxDist[%d][%d] = %v, want %v", i, j, bd.MaxDist[i][j], mx)
			}
		}
	}
}

// TestUpperBoundProperty: for random queries, the EB upper bound
// A[Rs][Rt].max must dominate the border-to-border segment of the true
// shortest path, which is what pruning soundness rests on.
func TestUpperBoundProperty(t *testing.T) {
	g, r, bd := setup(t, 500, 560, 8, 2)
	for s := 0; s < g.NumNodes(); s += 37 {
		for d := 1; d < g.NumNodes(); d += 53 {
			rs := r.Assign[s]
			rt := r.Assign[d]
			if rs == rt {
				continue
			}
			ub := bd.MaxDist[rs][rt]
			// The path's first exit border of rs and last entry border of
			// rt must satisfy dist(b0, b2) <= UB.
			_, path, _ := spath.PointToPoint(g, graph.NodeID(s), graph.NodeID(d))
			var b0, b2 graph.NodeID = graph.Invalid, graph.Invalid
			for k := 0; k < len(path); k++ {
				if r.Assign[path[k]] == rs {
					b0 = path[k]
				} else {
					break
				}
			}
			for k := len(path) - 1; k >= 0; k-- {
				if r.Assign[path[k]] == rt {
					b2 = path[k]
				} else {
					break
				}
			}
			if b0 == graph.Invalid || b2 == graph.Invalid {
				continue
			}
			seg, _, _ := spath.PointToPoint(g, b0, b2)
			if seg > ub+1e-6 {
				t.Fatalf("query %d->%d: segment %v exceeds UB %v", s, d, seg, ub)
			}
		}
	}
}

// TestTraversalContainsShortestPathRegions: the NEED set of (Rs, Rt) must
// contain every region the true shortest path visits — Section 5's
// correctness guarantee.
func TestTraversalContainsShortestPathRegions(t *testing.T) {
	g, r, bd := setup(t, 500, 560, 8, 3)
	for s := 0; s < g.NumNodes(); s += 41 {
		for d := 1; d < g.NumNodes(); d += 59 {
			rs, rt := r.Assign[s], r.Assign[d]
			need := bd.Need(rs, rt, r.N)
			_, path, _ := spath.PointToPoint(g, graph.NodeID(s), graph.NodeID(d))
			for _, v := range path {
				if !need.Has(r.Assign[v]) {
					t.Fatalf("query %d->%d: path visits region %d missing from NEED(%d,%d)",
						s, d, r.Assign[v], rs, rt)
				}
			}
		}
	}
}

// TestCrossBorderCoversTransitSegments: nodes of a shortest path inside a
// region other than the terminals' must be classified cross-border
// (Section 4.1's segmentation guarantee).
func TestCrossBorderCoversTransitSegments(t *testing.T) {
	g, r, bd := setup(t, 500, 560, 8, 4)
	for s := 0; s < g.NumNodes(); s += 43 {
		for d := 1; d < g.NumNodes(); d += 61 {
			rs, rt := r.Assign[s], r.Assign[d]
			_, path, _ := spath.PointToPoint(g, graph.NodeID(s), graph.NodeID(d))
			for _, v := range path {
				rv := r.Assign[v]
				if rv == rs || rv == rt {
					continue
				}
				if !bd.CrossBorder[v] {
					t.Fatalf("query %d->%d: transit node %d (region %d) not cross-border", s, d, v, rv)
				}
			}
		}
	}
}

func TestRegionSetOps(t *testing.T) {
	s := NewRegionSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Fatal("set/has wrong")
	}
	count := func() (n int) {
		for _, w := range s {
			n += bits.OnesCount64(w)
		}
		return n
	}
	if count() != 3 {
		t.Fatalf("count %d", count())
	}
	o := NewRegionSet(130)
	o.Set(5)
	s.Or(o)
	if !s.Has(5) || count() != 4 {
		t.Fatal("or wrong")
	}
}

func TestSplitSegments(t *testing.T) {
	nodes := []graph.NodeID{1, 2, 3, 4}
	cross := []bool{false, true, false, true, false}
	ordered, nCross := SplitSegments(nodes, cross)
	if nCross != 2 {
		t.Fatalf("nCross %d", nCross)
	}
	want := []graph.NodeID{1, 3, 2, 4}
	for i := range want {
		if ordered[i] != want[i] {
			t.Fatalf("ordered %v, want %v", ordered, want)
		}
	}
}

func TestDiagonalSemantics(t *testing.T) {
	_, r, bd := setup(t, 300, 330, 4, 5)
	for i := 0; i < r.N; i++ {
		if bd.MinDist[i][i] != 0 {
			t.Errorf("MinDist[%d][%d] = %v, want 0", i, i, bd.MinDist[i][i])
		}
		if !bd.Traversal(i, i, r.N).Has(i) {
			t.Errorf("Traverse[%d][%d] missing own region", i, i)
		}
	}
}

func TestBorderCount(t *testing.T) {
	_, r, _ := setup(t, 200, 220, 4, 6)
	total := 0
	for _, bs := range r.Borders {
		total += len(bs)
	}
	if total == 0 {
		t.Fatal("no border nodes on a connected partitioned network")
	}
}

// equalBorderData fails the test at the first field where b diverges from
// the expected a.
func equalBorderData(t *testing.T, label string, n int, a, b *BorderData) {
	t.Helper()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.MinDist[i][j] != b.MinDist[i][j] || a.MaxDist[i][j] != b.MaxDist[i][j] {
				t.Fatalf("%s: dist cell (%d,%d): want min/max %v/%v, got %v/%v",
					label, i, j, a.MinDist[i][j], a.MaxDist[i][j], b.MinDist[i][j], b.MaxDist[i][j])
			}
			for w := range a.Traverse[i*n+j] {
				if a.Traverse[i*n+j][w] != b.Traverse[i*n+j][w] {
					t.Fatalf("%s: traversal set (%d,%d) word %d differs", label, i, j, w)
				}
			}
		}
	}
	for v := range a.CrossBorder {
		if a.CrossBorder[v] != b.CrossBorder[v] {
			t.Fatalf("%s: CrossBorder[%d]: want %v, got %v", label, v, a.CrossBorder[v], b.CrossBorder[v])
		}
	}
}

// TestParallelMatchesSerial pins ComputeWorkers' contract on all five
// harness networks (scaled down): every worker count produces the exact
// BorderData the serial path produces. CI additionally runs this package
// under -race with GOMAXPROCS > 1.
func TestParallelMatchesSerial(t *testing.T) {
	for _, p := range netgen.Presets {
		p := p.Scaled(0.01)
		g, err := p.Generate(2010)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		kd, err := partition.NewKDTree(g, 8)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		r := BuildRegions(g, kd)
		serial := ComputeWorkers(g, r, 1)
		for _, workers := range []int{2, 4, 0} {
			par := ComputeWorkers(g, r, workers)
			equalBorderData(t, p.Name, r.N, serial, par)
		}
	}
}

// harnessCases generates the five harness networks at 1 % scale with an
// 8-region kd partition, plus a germany whose weights have been made
// asymmetric through graph.WithWeights (the graph an update rebuild sees).
func harnessCases(t *testing.T) (cases []harnessCase) {
	t.Helper()
	add := func(name string, g *graph.Graph) {
		kd, err := partition.NewKDTree(g, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, harnessCase{name, g, BuildRegions(g, kd)})
	}
	for _, p := range netgen.Presets {
		g, err := p.Scaled(0.01).Generate(2010)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		add(p.Name, g)
		if p.Name != "germany" {
			continue
		}
		// Re-weigh one direction of every third arc, so d(u,v) != d(v,u).
		rng := rand.New(rand.NewSource(7))
		var ups []graph.WeightUpdate
		for v := 0; v < g.NumNodes(); v++ {
			dst, wgt := g.Out(graph.NodeID(v))
			for i, u := range dst {
				if rng.Intn(3) == 0 {
					ups = append(ups, graph.WeightUpdate{From: graph.NodeID(v), To: u, Weight: wgt[i] * (0.5 + 2*rng.Float64())})
				}
			}
		}
		re, err := g.WithWeights(ups)
		if err != nil {
			t.Fatal(err)
		}
		add("germany-reweighed", re)
	}
	return cases
}

type harnessCase struct {
	name string
	g    *graph.Graph
	r    *Regions
}

// TestChainSearchMatchesDijkstraOnBorderSources: from every border source
// of every harness network the graph kernel's Dist is bit-equal and its
// Parent equal to the heap loop's — these networks have unique shortest
// paths, so the tie rule (DESIGN.md §5) never comes into play.
func TestChainSearchMatchesDijkstraOnBorderSources(t *testing.T) {
	for _, c := range harnessCases(t) {
		var s spath.Search
		for _, bs := range c.r.Borders {
			for _, b := range bs {
				want := dijkstra(c.g, b)
				s.Run(c.g, spath.Out, b, graph.Invalid)
				for v := range want.Dist {
					if s.Dist[v] != want.Dist[v] || s.Parent[v] != want.Parent[v] {
						t.Fatalf("%s: source %d node %d: dist/parent %v/%d, Dijkstra %v/%d",
							c.name, b, v, s.Dist[v], s.Parent[v], want.Dist[v], want.Parent[v])
					}
				}
			}
		}
	}
}

// dijkstraTree is a shortest-path tree from the textbook heap loop, with
// the order nodes popped in (parents before children).
type dijkstraTree struct {
	Dist     []float64
	Parent   []graph.NodeID
	PopOrder []graph.NodeID
}

// dijkstra is the textbook heap loop from src: every node a relaxation
// improves goes through the heap, and a node is final when it pops. It is
// the oracle the graph kernel and the production pre-computation are held
// to.
func dijkstra(g *graph.Graph, src graph.NodeID) *dijkstraTree {
	n := g.NumNodes()
	t := &dijkstraTree{Dist: make([]float64, n), Parent: make([]graph.NodeID, n)}
	for i := range t.Dist {
		t.Dist[i], t.Parent[i] = math.Inf(1), graph.Invalid
	}
	h := pq.New(n)
	t.Dist[src] = 0
	h.Push(int32(src), 0)
	for h.Len() > 0 {
		item, d := h.Pop()
		v := graph.NodeID(item)
		t.PopOrder = append(t.PopOrder, v)
		dst, wgt := g.Out(v)
		for i, u := range dst {
			if nd := d + wgt[i]; nd < t.Dist[u] {
				t.Dist[u], t.Parent[u] = nd, v
				h.PushOrDecrease(int32(u), nd)
			}
		}
	}
	return t
}

// referenceCompute is the border pre-computation as it ran before the
// chain-rule kernel — one heap-loop search per border node and two passes
// over its pop order — kept as the oracle for the production path.
func referenceCompute(g *graph.Graph, r *Regions) *BorderData {
	n, nn := r.N, g.NumNodes()
	words := (n + 63) / 64
	bd := &BorderData{
		MinDist:     newMatrix(n, math.Inf(1)),
		MaxDist:     newMatrix(n, 0),
		Traverse:    make([]RegionSet, n*n),
		CrossBorder: make([]bool, nn),
	}
	for i := range bd.Traverse {
		bd.Traverse[i] = NewRegionSet(n)
	}
	ros := make([]uint64, nn*words)
	hasTarget := make([]bool, nn)
	for ri := 0; ri < n; ri++ {
		for _, b := range r.Borders[ri] {
			tree := dijkstra(g, b)

			// Pass 1 (pop order): regions on the path from b to v.
			for _, v := range tree.PopOrder {
				dst := ros[int(v)*words : int(v)*words+words]
				if p := tree.Parent[v]; p != graph.Invalid {
					copy(dst, ros[int(p)*words:int(p)*words+words])
				} else {
					for k := range dst {
						dst[k] = 0
					}
				}
				reg := r.Assign[v]
				dst[reg/64] |= 1 << (reg % 64)
			}
			for rj := 0; rj < n; rj++ {
				cell := bd.Traverse[ri*n+rj]
				for _, bt := range r.Borders[rj] {
					d := tree.Dist[bt]
					if bt == b || math.IsInf(d, 1) {
						continue
					}
					bd.MinDist[ri][rj] = math.Min(bd.MinDist[ri][rj], d)
					bd.MaxDist[ri][rj] = math.Max(bd.MaxDist[ri][rj], d)
					cell.Or(ros[int(bt)*words : int(bt)*words+words])
				}
			}

			// Pass 2 (reverse pop order): mark ancestors of border targets
			// in other regions — the cross-border nodes.
			for _, v := range tree.PopOrder {
				hasTarget[v] = r.IsBorder[v] && r.Assign[v] != ri
			}
			for k := len(tree.PopOrder) - 1; k >= 0; k-- {
				v := tree.PopOrder[k]
				if hasTarget[v] {
					bd.CrossBorder[v] = true
					if p := tree.Parent[v]; p != graph.Invalid {
						hasTarget[p] = true
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		bd.MinDist[i][i] = 0
		bd.Traverse[i*n+i].Set(i)
	}
	for v, isB := range r.IsBorder {
		if isB {
			bd.CrossBorder[v] = true
		}
	}
	return bd
}

// TestBorderDataMatchesReference: the production pre-computation emits the
// BorderData the per-source Dijkstra loop emitted, at every worker count.
func TestBorderDataMatchesReference(t *testing.T) {
	for _, c := range harnessCases(t) {
		want := referenceCompute(c.g, c.r)
		for _, workers := range []int{1, 2, 0} {
			equalBorderData(t, c.name, c.r.N, want, ComputeWorkers(c.g, c.r, workers))
		}
	}
}

// TestProcessBorderDoesNotAllocate: after the first source has sized the
// heap, a source costs no allocation — search, walks and all.
func TestProcessBorderDoesNotAllocate(t *testing.T) {
	g, r, _ := setup(t, 500, 560, 8, 7)
	a := newBorderAccum(g, r.N)
	var jobs []borderJob
	for ri, bs := range r.Borders {
		for _, b := range bs {
			jobs = append(jobs, borderJob{ri, b})
		}
	}
	for _, j := range jobs {
		a.processBorder(r, j)
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(jobs), func() {
		a.processBorder(r, jobs[i%len(jobs)])
		i++
	}); allocs != 0 {
		t.Fatalf("processBorder allocates %v times per source", allocs)
	}
}

// BenchmarkPrecomputeParallel measures the border-pair pre-computation
// serial versus fanned across all cores (`-benchmem` shows the per-worker
// accumulator overhead), beside the serial per-source Dijkstra loop it
// replaced ("reference").
func BenchmarkPrecomputeParallel(b *testing.B) {
	g, err := netgen.PresetByName("germany")
	if err != nil {
		b.Fatal(err)
	}
	gg, err := g.Scaled(0.05).Generate(2010)
	if err != nil {
		b.Fatal(err)
	}
	kd, err := partition.NewKDTree(gg, 32)
	if err != nil {
		b.Fatal(err)
	}
	r := BuildRegions(gg, kd)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceCompute(gg, r)
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ComputeWorkers(gg, r, 1)
		}
	})
	b.Run("gomaxprocs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ComputeWorkers(gg, r, 0)
		}
	})
}
