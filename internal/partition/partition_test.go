package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func randomNetwork(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)), 1+rng.Float64())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKDTreeRegionCountValidation(t *testing.T) {
	g := randomNetwork(t, 64, 1)
	for _, bad := range []int{0, 1, 3, 6, 100} {
		if _, err := NewKDTree(g, bad); err == nil {
			t.Errorf("regions=%d should be rejected", bad)
		}
	}
	for _, good := range []int{2, 4, 8, 16, 32} {
		if _, err := NewKDTree(g, good); err != nil {
			t.Errorf("regions=%d rejected: %v", good, err)
		}
	}
}

func TestKDTreeBalance(t *testing.T) {
	g := randomNetwork(t, 1024, 2)
	kd, err := NewKDTree(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	for _, nd := range g.Nodes() {
		counts[kd.RegionOf(nd.X, nd.Y)]++
	}
	for r, c := range counts {
		// Median splits keep regions within a factor ~2 of the mean even
		// with ties.
		if c < 16 || c > 192 {
			t.Errorf("region %d has %d nodes (mean 64): unbalanced", r, c)
		}
	}
}

func TestKDTreeSerializationRoundTrip(t *testing.T) {
	g := randomNetwork(t, 500, 3)
	kd, err := NewKDTree(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	kd2, err := KDTreeFromSplits(kd.Splits())
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range g.Nodes() {
		if a, b := kd.RegionOf(nd.X, nd.Y), kd2.RegionOf(nd.X, nd.Y); a != b {
			t.Fatalf("node %d: region %d != reconstructed %d", nd.ID, a, b)
		}
	}
}

func TestKDTreeFromSplitsValidation(t *testing.T) {
	if _, err := KDTreeFromSplits(make([]float64, 2)); err == nil {
		t.Error("3 leaves should be rejected (not a power of two)")
	}
	if _, err := KDTreeFromSplits(nil); err == nil {
		t.Error("empty split sequence should be rejected")
	}
}

// TestKDTreeQuantizationAgreement: assignment computed from full-precision
// coordinates must agree with assignment computed from float32-quantized
// coordinates — the guarantee the broadcast format relies on.
func TestKDTreeQuantizationAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomNetwork(t, 256, seed)
		kd, err := NewKDTree(g, 8)
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			x := rng.Float64() * 1000
			y := rng.Float64() * 1000
			if kd.RegionOf(x, y) != kd.RegionOf(float64(float32(x)), float64(float32(y))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGridRegionOf(t *testing.T) {
	g := randomNetwork(t, 100, 4)
	gr, err := NewGrid(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gr.NumRegions() != 16 {
		t.Fatalf("regions %d", gr.NumRegions())
	}
	for _, nd := range g.Nodes() {
		r := gr.RegionOf(nd.X, nd.Y)
		if r < 0 || r >= 16 {
			t.Fatalf("region %d out of range", r)
		}
	}
	// Clamping outside the box.
	minX, minY, maxX, maxY := gr.Bounds()
	if gr.RegionOf(minX-100, minY-100) != 0 {
		t.Error("clamp to first cell failed")
	}
	if gr.RegionOf(maxX+100, maxY+100) != 15 {
		t.Error("clamp to last cell failed")
	}
}

func TestGridValidation(t *testing.T) {
	g := randomNetwork(t, 10, 5)
	if _, err := NewGrid(g, 0, 4); err == nil {
		t.Error("0 columns should be rejected")
	}
	if _, err := NewGridFromBounds(2, 2, 0, 0, 1, 1); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
}

func TestGridBoundsRoundTrip(t *testing.T) {
	g := randomNetwork(t, 200, 6)
	gr, _ := NewGrid(g, 8, 8)
	minX, minY, maxX, maxY := gr.Bounds()
	gr2, _ := NewGridFromBounds(8, 8, minX, minY, maxX, maxY)
	for _, nd := range g.Nodes() {
		if gr.RegionOf(nd.X, nd.Y) != gr2.RegionOf(nd.X, nd.Y) {
			t.Fatal("grid reconstruction changed assignment")
		}
	}
}

func TestBorders(t *testing.T) {
	// Path graph 0-1-2-3 split into two regions by x.
	b := graph.NewBuilder(4, 6)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(10, 0)
	b.AddNode(11, 0)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 0, 1, 1}
	perRegion, isBorder := Borders(g, assign, 2)
	if len(perRegion[0]) != 1 || perRegion[0][0] != 1 {
		t.Errorf("region 0 borders = %v, want [1]", perRegion[0])
	}
	if len(perRegion[1]) != 1 || perRegion[1][0] != 2 {
		t.Errorf("region 1 borders = %v, want [2]", perRegion[1])
	}
	want := []bool{false, true, true, false}
	for v, w := range want {
		if isBorder[v] != w {
			t.Errorf("isBorder[%d] = %v, want %v", v, isBorder[v], w)
		}
	}
}

func TestRegionNodesPartition(t *testing.T) {
	g := randomNetwork(t, 300, 7)
	kd, _ := NewKDTree(g, 8)
	assign := Assign(g, kd)
	nodes := RegionNodes(assign, 8)
	total := 0
	for _, ns := range nodes {
		total += len(ns)
	}
	if total != g.NumNodes() {
		t.Fatalf("region nodes cover %d of %d", total, g.NumNodes())
	}
}
