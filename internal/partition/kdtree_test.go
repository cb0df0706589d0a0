package partition

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/netgen"
)

// sortOracleSplits is the kd-tree construction NewKDTree replaced, kept as
// the reference its split values must equal bit for bit: every region's
// quantised coordinates are copied and sorted to read the ⌊m/2⌋-th, and
// the region's node indexes are split into fresh left and right slices.
func sortOracleSplits(g *graph.Graph, regions int) []float64 {
	levels := 0
	for 1<<levels < regions {
		levels++
	}
	splits := make([]float64, regions-1)
	idx := make([]int32, g.NumNodes())
	for i := range idx {
		idx[i] = int32(i)
	}
	nodes := make([]graph.Node, g.NumNodes())
	for i, nd := range g.Nodes() {
		nodes[i] = graph.Node{ID: nd.ID, X: quant(nd.X), Y: quant(nd.Y)}
	}
	groups := map[int][]int32{1: idx}
	for level := 0; level < levels; level++ {
		byY := level%2 == 0
		first := 1 << level
		for k := first; k < first*2; k++ {
			part := groups[k]
			delete(groups, k)
			coord := func(i int32) float64 {
				if byY {
					return nodes[i].Y
				}
				return nodes[i].X
			}
			var split float64
			var left, right []int32
			if len(part) > 0 {
				vals := make([]float64, len(part))
				for i, id := range part {
					vals[i] = coord(id)
				}
				sort.Float64s(vals)
				split = quant(vals[len(vals)/2])
				for _, id := range part {
					if coord(id) < split {
						left = append(left, id)
					} else {
						right = append(right, id)
					}
				}
			}
			splits[k-1] = split
			groups[2*k] = left
			groups[2*k+1] = right
		}
	}
	return splits
}

// pointNetwork is an arc-less network with the given coordinates.
func pointNetwork(t testing.TB, xs, ys []float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(len(xs), 0)
	for i := range xs {
		b.AddNode(xs[i], ys[i])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkAgainstOracle fails unless NewKDTree's split values equal the sort
// oracle's bit for bit.
func checkAgainstOracle(t testing.TB, g *graph.Graph, regions int) {
	t.Helper()
	kd, err := NewKDTree(g, regions)
	if err != nil {
		t.Fatal(err)
	}
	want := sortOracleSplits(g, regions)
	for i, got := range kd.Splits() {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("%d nodes, %d regions: split %d = %v, oracle %v", g.NumNodes(), regions, i, got, want[i])
		}
	}
}

func TestKDTreeMatchesSortOracle(t *testing.T) {
	scale := 1.0
	if testing.Short() {
		scale = 0.05
	}
	for _, p := range netgen.Presets {
		g, err := p.Scaled(scale).Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		for regions := 2; regions <= 256; regions *= 2 {
			checkAgainstOracle(t, g, regions)
		}
	}

	const n = 1001
	rng := rand.New(rand.NewSource(5))
	same := make([]float64, n)
	for i := range same {
		same[i] = 7.25
	}
	ramp, reverse := make([]float64, n), make([]float64, n)
	for i := range ramp {
		ramp[i], reverse[i] = float64(i), float64(n-i)
	}
	// Half the nodes on the median value, the rest scattered either side.
	halfX, halfY := make([]float64, n), make([]float64, n)
	for i := range halfX {
		halfX[i], halfY[i] = 500, 500
		if i%2 == 1 {
			halfX[i], halfY[i] = rng.Float64()*1000, rng.Float64()*1000
		}
	}
	// Organ pipe and sawtooth orders, which trip median-of-three pivots.
	pipe, saw := make([]float64, n), make([]float64, n)
	for i := range pipe {
		pipe[i] = float64(min(i, n-1-i))
		saw[i] = float64(i % 37)
	}
	nan, nanMost := make([]float64, n), make([]float64, n)
	for i := range nan {
		switch i % 5 {
		case 0:
			nan[i] = math.NaN()
		case 1:
			nan[i] = math.Inf(-1)
		default:
			nan[i] = rng.Float64()
		}
		nanMost[i] = math.NaN()
		if i%5 < 2 {
			nanMost[i] = rng.Float64()
		}
	}
	cases := []struct {
		name   string
		xs, ys []float64
	}{
		{"all equal", same, same},
		{"half on the median", halfX, halfY},
		{"sorted", ramp, ramp},
		{"reverse sorted", reverse, reverse},
		{"sorted against reverse", ramp, reverse},
		{"organ pipe", pipe, saw},
		{"NaN and -Inf", nan, reverse},
		{"NaN medians", nanMost, nanMost},
		{"3 nodes", []float64{1, 2, 3}, []float64{3, 1, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := pointNetwork(t, c.xs, c.ys)
			for regions := 2; regions <= 256; regions *= 2 {
				checkAgainstOracle(t, g, regions)
			}
		})
	}
	// 3 nodes into 32 regions: at least 13 of the last level's 16 groups
	// are empty, and an empty group splits at 0 (no coordinate is 0).
	kd, err := NewKDTree(pointNetwork(t, []float64{1, 2, 3}, []float64{3, 1, 2}), 32)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, s := range kd.Splits()[15:] {
		if s == 0 {
			zeros++
		}
	}
	if zeros < 13 {
		t.Errorf("%d of the last level's splits are 0, want at least 13", zeros)
	}
}

// TestSelectKthSortFallback runs the selection with no and with little
// imbalance budget, where it sorts part or all of the range, and with the
// budget medianSplit gives it, against a sorted copy.
func TestSelectKthSortFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for it := 0; it < 2000; it++ {
		n := 1 + rng.Intn(300)
		vals := 1 + rng.Intn(40)
		orig := make([]point, n)
		for i := range orig {
			orig[i] = point{float32(rng.Intn(vals)), float32(rng.Intn(vals))}
		}
		sorted := make([]float32, n)
		for i, p := range orig {
			sorted[i] = p[axisX]
		}
		slices.Sort(sorted)
		k := rng.Intn(n)
		for _, budget := range []int{0, 1, bits.Len(uint(n))} {
			a := slices.Clone(orig)
			selectKth(a, k, axisX, budget)
			if a[k][axisX] != sorted[k] {
				t.Fatalf("n=%d k=%d budget=%d: selected %v, want %v", n, k, budget, a[k][axisX], sorted[k])
			}
			for i, p := range a {
				if i < k && p[axisX] > sorted[k] || i > k && p[axisX] < sorted[k] {
					t.Fatalf("n=%d k=%d budget=%d: a[%d] = %v on the wrong side of %v", n, k, budget, i, p[axisX], sorted[k])
				}
			}
		}
	}
}

// FuzzKDTree checks NewKDTree against the sort oracle on up to 128 nodes
// whose coordinates take 64 values per axis, so that duplicates and empty
// groups are common, at a power-of-two region count from 2 to 256.
func FuzzKDTree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(4))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(2))
	f.Add([]byte{9, 9, 9, 9, 1, 200, 9, 9, 9, 9, 255, 0, 9, 9}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, logRegions uint8) {
		if len(data) < 2 || len(data) > 256 {
			return
		}
		xs, ys := make([]float64, len(data)/2), make([]float64, len(data)/2)
		for i := range xs {
			// 64 values per axis, with negatives and fractions.
			xs[i] = float64(int(data[2*i]%64)-32) / 4
			ys[i] = float64(int(data[2*i+1]%64)-32) / 4
		}
		checkAgainstOracle(t, pointNetwork(t, xs, ys), 2<<(logRegions%8))
	})
}

// BenchmarkNewKDTree builds the paper's 32-region partition of germany.
func BenchmarkNewKDTree(b *testing.B) {
	p, err := netgen.PresetByName("germany")
	if err != nil {
		b.Fatal(err)
	}
	g, err := p.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewKDTree(g, 32); err != nil {
			b.Fatal(err)
		}
	}
}
