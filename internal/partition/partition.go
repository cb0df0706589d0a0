// Package partition implements the spatial partitioning schemes the paper's
// air indexes are built on: kd-tree partitioning (Section 4.1, following
// [11]) and regular-grid partitioning (the straightforward alternative the
// paper discusses, and the leaf level of HiTi).
//
// A Partitioning maps Euclidean coordinates to region numbers; the region of
// a node is the region of its coordinates. Region numbering for the kd-tree
// follows the paper's convention: the leftmost leaf is R1 (index 0 here) and
// numbers increase across the leaves in tree order.
package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// Partitioning maps coordinates to region indexes 0..NumRegions()-1.
type Partitioning interface {
	NumRegions() int
	RegionOf(x, y float64) int
}

// Assign returns the region of every node in g under p.
func Assign(g *graph.Graph, p Partitioning) []int {
	assign := make([]int, g.NumNodes())
	for i, nd := range g.Nodes() {
		assign[i] = p.RegionOf(nd.X, nd.Y)
	}
	return assign
}

// KDTree is a kd-tree partitioning with a power-of-two number of leaf
// regions. Internal nodes are stored implicitly as a complete binary tree in
// breadth-first order — exactly the split-value sequence the EB/NR index
// broadcasts as its first component (paper Section 4.1). Splits alternate
// axes by level, starting with a split on y (a line parallel to the x-axis),
// matching the paper's Figure 2.
type KDTree struct {
	splits []float64 // len == regions-1, BFS order
	levels int       // log2(regions)
}

// NewKDTree builds a kd-tree over the nodes of g with the given number of
// regions, which must be a power of two and at least 2. Split values are
// median coordinates of the nodes in the region being split: the ⌊m/2⌋-th
// smallest of a region's m float32-quantised coordinates (0 for an empty
// region), with the nodes strictly below it going left.
//
// The build permutes one array of quantised points in place, level by
// level: every region is a contiguous run of it, and its median comes from
// a linear-time selection (selectKth), so a build costs O(n) per level
// instead of a sort per region.
func NewKDTree(g *graph.Graph, regions int) (*KDTree, error) {
	if regions < 2 || regions&(regions-1) != 0 {
		return nil, fmt.Errorf("partition: regions must be a power of two >= 2, got %d", regions)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("partition: cannot partition an empty graph")
	}
	levels := bits.Len(uint(regions)) - 1
	t := &KDTree{splits: make([]float64, regions-1), levels: levels}

	// Quantize coordinates to float32 up front: split values travel on air
	// as float32, and server-side assignment must agree bit-for-bit with
	// the client's reconstruction (see RegionOf).
	pts := make([]point, g.NumNodes())
	hasNaN := false
	for i, nd := range g.Nodes() {
		pts[i] = point{float32(nd.X), float32(nd.Y)}
		hasNaN = hasNaN || nd.X != nd.X || nd.Y != nd.Y
	}
	// At level l, tree node k = 2^l+j (1-based heap numbering: children of
	// k are 2k and 2k+1) holds pts[bounds[j]:bounds[j+1]]. Walking a level
	// right to left lets the children's bounds overwrite their parents'.
	bounds := make([]int, regions+1)
	bounds[1] = len(pts)
	for level := 0; level < levels; level++ {
		axis := axisY // level 0 splits on y, per the paper's Figure 2
		if level%2 == 1 {
			axis = axisX
		}
		first := 1 << level
		for j := first - 1; j >= 0; j-- {
			lo, hi := bounds[j], bounds[j+1]
			split, mid := medianSplit(pts[lo:hi], axis, hasNaN)
			t.splits[first-1+j] = split
			bounds[2*j], bounds[2*j+1], bounds[2*j+2] = lo, lo+mid, hi
		}
	}
	return t, nil
}

// point is a node's quantised coordinates, indexed by axisX or axisY.
type point [2]float32

const (
	axisX = 0
	axisY = 1
)

// medianSplit reorders part so that the nodes whose coordinate on axis is
// strictly below the median come first, and returns the median and the
// number of those nodes. hasNaN says whether any coordinate may be NaN.
//
// The order is sort.Float64s': NaNs first, then the numbers ascending. The
// median is the ⌊m/2⌋-th smallest; no NaN is below any value, so NaNs go
// right.
func medianSplit(part []point, axis int, hasNaN bool) (split float64, mid int) {
	if len(part) == 0 {
		return 0, 0
	}
	k := len(part) / 2
	nans := 0
	if hasNaN {
		for i, p := range part {
			if p[axis] != p[axis] {
				part[i], part[nans] = part[nans], part[i]
				nans++
			}
		}
	}
	if k < nans {
		// A NaN median: nothing is below it.
		return float64(part[k][axis]), 0
	}
	rest := part[nans:]
	selectKth(rest, k-nans, axis, bits.Len(uint(len(rest))))
	s := part[k][axis]
	// Everything below the median is in part[:k] now.
	for i := range part[:k] {
		if part[i][axis] < s {
			part[i], part[mid] = part[mid], part[i]
			mid++
		}
	}
	return float64(s), mid
}

// selectKth reorders a, which holds no NaN on axis, so that a[k] is its
// k-th smallest coordinate on axis, nothing before a[k] is larger and
// nothing after it is smaller.
//
// It is quickselect with a median-of-three pivot and Hoare's partition,
// which splits runs of equal values evenly. A round that keeps more than
// 7/8 of its range is unbalanced; once budget of those have run it sorts
// the range left instead. medianSplit's budget of log2(len(a)) keeps the
// worst case at O(m log m) with no randomness.
func selectKth(a []point, k, axis, budget int) {
	lo, hi := 0, len(a)-1 // k is in a[lo:hi+1]
	for hi-lo >= 16 {
		if budget == 0 {
			slices.SortFunc(a[lo:hi+1], func(p, q point) int { return cmp.Compare(p[axis], q[axis]) })
			return
		}
		// Order a[lo], a[m], a[hi]: their median is the pivot, and the two
		// ends bound both scans below.
		m := lo + (hi-lo)/2
		if a[m][axis] < a[lo][axis] {
			a[m], a[lo] = a[lo], a[m]
		}
		if a[hi][axis] < a[m][axis] {
			a[hi], a[m] = a[m], a[hi]
			if a[m][axis] < a[lo][axis] {
				a[m], a[lo] = a[lo], a[m]
			}
		}
		pivot := a[m][axis]
		i, j := lo, hi
		for {
			i++
			for a[i][axis] < pivot {
				i++
			}
			j--
			for pivot < a[j][axis] {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		// a[lo:j+1] <= pivot <= a[j+1:hi+1], both non-empty.
		n := hi - lo + 1
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
		if 8*(hi-lo+1) > 7*n {
			budget--
		}
	}
	// Insertion sort of the last few.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && a[j][axis] < a[j-1][axis]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// NumRegions implements Partitioning.
func (t *KDTree) NumRegions() int { return len(t.splits) + 1 }

// quant rounds to float32 precision: the precision of everything on air.
func quant(v float64) float64 { return float64(float32(v)) }

// RegionOf implements Partitioning: walk the implicit tree comparing the
// query coordinate against the split value of each level. Inputs are
// quantized to float32 first so that server-side assignment (full-precision
// coordinates) and client-side lookup (float32 coordinates decoded from
// broadcast records) agree on every node.
func (t *KDTree) RegionOf(x, y float64) int {
	x, y = quant(x), quant(y)
	k := 1
	for level := 0; level < t.levels; level++ {
		split := t.splits[k-1]
		var c float64
		if level%2 == 0 {
			c = y
		} else {
			c = x
		}
		if c < split {
			k = 2 * k
		} else {
			k = 2*k + 1
		}
	}
	return k - (1 << t.levels)
}

// Splits returns the breadth-first split-value sequence: what the EB and NR
// indexes transmit as their first component. The caller must not modify it.
func (t *KDTree) Splits() []float64 { return t.splits }

// KDTreeFromSplits reconstructs a kd-tree partitioning from a broadcast
// split sequence (regions-1 values in breadth-first order). This is the
// client-side half of the paper's Section 4.1: the split values alone
// suffice to map a coordinate to its region.
func KDTreeFromSplits(splits []float64) (*KDTree, error) {
	n := len(splits) + 1
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("partition: split sequence of length %d does not encode a power-of-two leaf count", len(splits))
	}
	levels := 0
	for 1<<levels < n {
		levels++
	}
	cp := make([]float64, len(splits))
	copy(cp, splits)
	return &KDTree{splits: cp, levels: levels}, nil
}

// Grid is a regular k×m grid partitioning over a bounding box: the paper's
// "straightforward approach" and HiTi's leaf partitioning.
type Grid struct {
	cols, rows             int
	minX, minY, maxX, maxY float64
}

// NewGrid builds a cols×rows grid over the bounding box of g, slightly
// expanded so boundary coordinates fall inside.
func NewGrid(g *graph.Graph, cols, rows int) (*Grid, error) {
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("partition: grid dimensions must be positive, got %dx%d", cols, rows)
	}
	minX, minY, maxX, maxY := g.Bounds()
	// Guard against degenerate (zero-extent) boxes.
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	return NewGridFromBounds(cols, rows, quant(minX), quant(minY), quant(maxX), quant(maxY))
}

// NewGridFromBounds reconstructs a grid from broadcast parameters (client
// side). Bounds are quantized to float32 like everything on air.
func NewGridFromBounds(cols, rows int, minX, minY, maxX, maxY float64) (*Grid, error) {
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("partition: grid dimensions must be positive, got %dx%d", cols, rows)
	}
	return &Grid{
		cols: cols, rows: rows,
		minX: quant(minX), minY: quant(minY), maxX: quant(maxX), maxY: quant(maxY),
	}, nil
}

// Bounds returns the grid's bounding box.
func (gr *Grid) Bounds() (minX, minY, maxX, maxY float64) {
	return gr.minX, gr.minY, gr.maxX, gr.maxY
}

// NumRegions implements Partitioning.
func (gr *Grid) NumRegions() int { return gr.cols * gr.rows }

// RegionOf implements Partitioning. Coordinates outside the box clamp to the
// nearest cell. Inputs are quantized to float32 first (see KDTree.RegionOf).
func (gr *Grid) RegionOf(x, y float64) int {
	x, y = quant(x), quant(y)
	cx := int(math.Floor((x - gr.minX) / (gr.maxX - gr.minX) * float64(gr.cols)))
	cy := int(math.Floor((y - gr.minY) / (gr.maxY - gr.minY) * float64(gr.rows)))
	cx = clamp(cx, 0, gr.cols-1)
	cy = clamp(cy, 0, gr.rows-1)
	return cy*gr.cols + cx
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Borders identifies border nodes: nodes with at least one adjacent node
// (in either arc direction) in a different region (paper Section 2.1, HiTi
// definition, reused by EB/NR in Section 4.1).
//
// It returns the per-region border-node lists (sorted by ID) and a boolean
// mask over all nodes.
func Borders(g *graph.Graph, assign []int, regions int) (perRegion [][]graph.NodeID, isBorder []bool) {
	n := g.NumNodes()
	isBorder = make([]bool, n)
	perRegion = make([][]graph.NodeID, regions)
	for v := 0; v < n; v++ {
		rv := assign[v]
		out, _ := g.Out(graph.NodeID(v))
		cross := false
		for _, u := range out {
			if assign[u] != rv {
				cross = true
				break
			}
		}
		if !cross {
			in, _ := g.In(graph.NodeID(v))
			for _, u := range in {
				if assign[u] != rv {
					cross = true
					break
				}
			}
		}
		if cross {
			isBorder[v] = true
			perRegion[rv] = append(perRegion[rv], graph.NodeID(v))
		}
	}
	return perRegion, isBorder
}

// RegionNodes groups node IDs by region (sorted by ID within each region):
// the broadcast order of adjacency data within a region's data segment.
func RegionNodes(assign []int, regions int) [][]graph.NodeID {
	out := make([][]graph.NodeID, regions)
	for v, r := range assign {
		out[r] = append(out[r], graph.NodeID(v))
	}
	return out
}
