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
	"fmt"
	"math"
	"sort"

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
// median coordinates of the nodes in the region being split.
func NewKDTree(g *graph.Graph, regions int) (*KDTree, error) {
	if regions < 2 || regions&(regions-1) != 0 {
		return nil, fmt.Errorf("partition: regions must be a power of two >= 2, got %d", regions)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("partition: cannot partition an empty graph")
	}
	levels := 0
	for 1<<levels < regions {
		levels++
	}
	t := &KDTree{splits: make([]float64, regions-1), levels: levels}

	// Work on index slices into the node array, splitting by median.
	idx := make([]int32, g.NumNodes())
	for i := range idx {
		idx[i] = int32(i)
	}
	nodes := make([]graph.Node, g.NumNodes())
	// Quantize coordinates to float32 up front: split values travel on air
	// as float32, and server-side assignment must agree bit-for-bit with
	// the client's reconstruction (see RegionOf).
	for i, nd := range g.Nodes() {
		nodes[i] = graph.Node{ID: nd.ID, X: quant(nd.X), Y: quant(nd.Y)}
	}
	// groups[k] holds the node indexes currently in implicit tree node k
	// (1-based heap numbering: children of k are 2k and 2k+1).
	groups := map[int][]int32{1: idx}
	for level := 0; level < levels; level++ {
		byY := level%2 == 0 // level 0 splits on y, per the paper's Figure 2
		first := 1 << level
		for k := first; k < first*2; k++ {
			part := groups[k]
			delete(groups, k)
			split, left, right := medianSplit(nodes, part, byY)
			t.splits[k-1] = split
			groups[2*k] = left
			groups[2*k+1] = right
		}
	}
	return t, nil
}

// medianSplit partitions part by the median of the chosen coordinate.
// Nodes with coordinate strictly below the median go left; the rest right.
// The returned halves differ in size by at most the number of ties at the
// median value.
func medianSplit(nodes []graph.Node, part []int32, byY bool) (split float64, left, right []int32) {
	coord := func(i int32) float64 {
		if byY {
			return nodes[i].Y
		}
		return nodes[i].X
	}
	if len(part) == 0 {
		return 0, nil, nil
	}
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
	return split, left, right
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
