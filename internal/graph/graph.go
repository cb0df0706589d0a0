// Package graph implements the directed, weighted road-network graph that
// underlies every air-index scheme in this repository.
//
// A road network follows the paper's Section 2.1 model: a directed weighted
// graph G = (V, E) where each node carries an identifier and Euclidean
// coordinates, and each edge carries a non-negative weight (length, travel
// time, toll fee, ...). The concrete representation is a compressed sparse
// row (CSR) adjacency structure, immutable after construction, plus a
// reverse CSR for algorithms that search backwards (ArcFlag pre-computation,
// border detection on directed graphs).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node. IDs are dense: a graph with n nodes uses IDs
// 0..n-1.
type NodeID int32

// Invalid is the sentinel NodeID used for "no node" (e.g. absent parents in
// shortest-path trees).
const Invalid NodeID = -1

// Node is a road-network vertex: an identifier plus Euclidean coordinates,
// mirroring the paper's <id, x, y> triplets.
type Node struct {
	ID NodeID
	X  float64
	Y  float64
}

// Arc is one directed edge as seen from its tail node.
type Arc struct {
	To     NodeID
	Weight float64
}

// Graph is an immutable directed weighted graph in CSR form.
//
// The zero value is an empty graph; use a Builder or Decode to obtain a
// populated one.
type Graph struct {
	nodes []Node

	// Forward CSR.
	off []int32
	dst []NodeID
	wgt []float64

	// Reverse CSR (built eagerly; several substrates need it).
	roff []int32
	rdst []NodeID
	rwgt []float64

	minX, minY, maxX, maxY float64
}

// NumNodes returns the number of nodes.
//
//air:noalloc
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumArcs returns the number of directed arcs.
func (g *Graph) NumArcs() int { return len(g.dst) }

// Node returns the node with the given ID. It panics if id is out of range,
// consistent with slice indexing semantics.
//
//air:noalloc
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Nodes returns the underlying node slice. Callers must not modify it.
func (g *Graph) Nodes() []Node { return g.nodes }

// Out returns the outgoing arcs of v as parallel slices (targets, weights).
// The slices alias internal storage and must not be modified.
//
//air:noalloc
func (g *Graph) Out(v NodeID) ([]NodeID, []float64) {
	lo, hi := g.off[v], g.off[v+1]
	return g.dst[lo:hi], g.wgt[lo:hi]
}

// In returns the incoming arcs of v as parallel slices (sources, weights).
//
//air:noalloc
func (g *Graph) In(v NodeID) ([]NodeID, []float64) {
	lo, hi := g.roff[v], g.roff[v+1]
	return g.rdst[lo:hi], g.rwgt[lo:hi]
}

// CSR returns the forward adjacency arrays, or the reverse ones: the arcs
// of v (incoming when reverse) are dst[off[v]:off[v+1]] with weights
// wgt[off[v]:off[v+1]]. The slices alias internal storage and must not be
// modified.
func (g *Graph) CSR(reverse bool) (off []int32, dst []NodeID, wgt []float64) {
	if reverse {
		return g.roff, g.rdst, g.rwgt
	}
	return g.off, g.dst, g.wgt
}

// OutDegree returns the number of outgoing arcs of v.
func (g *Graph) OutDegree(v NodeID) int { return int(g.off[v+1] - g.off[v]) }

// InDegree returns the number of incoming arcs of v.
func (g *Graph) InDegree(v NodeID) int { return int(g.roff[v+1] - g.roff[v]) }

// Bounds returns the bounding box of all node coordinates
// (minX, minY, maxX, maxY). For an empty graph all values are zero.
func (g *Graph) Bounds() (minX, minY, maxX, maxY float64) {
	return g.minX, g.minY, g.maxX, g.maxY
}

// ArcWeight returns the weight of the arc u->v and whether such an arc
// exists. With parallel arcs the minimum weight is returned.
func (g *Graph) ArcWeight(u, v NodeID) (float64, bool) {
	dst, wgt := g.Out(u)
	best, ok := math.Inf(1), false
	for i, d := range dst {
		if d == v && wgt[i] < best {
			best, ok = wgt[i], true
		}
	}
	return best, ok
}

// Builder accumulates nodes and arcs and produces an immutable Graph.
type Builder struct {
	nodes []Node
	tails []NodeID
	heads []NodeID
	wgts  []float64
}

// NewBuilder returns a Builder with capacity hints for n nodes and m arcs.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		nodes: make([]Node, 0, n),
		tails: make([]NodeID, 0, m),
		heads: make([]NodeID, 0, m),
		wgts:  make([]float64, 0, m),
	}
}

// AddNode appends a node with the next dense ID and returns that ID.
func (b *Builder) AddNode(x, y float64) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, X: x, Y: y})
	return id
}

// AddArc appends the directed arc u->v with weight w.
func (b *Builder) AddArc(u, v NodeID, w float64) {
	b.tails = append(b.tails, u)
	b.heads = append(b.heads, v)
	b.wgts = append(b.wgts, w)
}

// AddEdge appends both directed arcs u->v and v->u with weight w; road
// segments are predominantly bidirectional.
func (b *Builder) AddEdge(u, v NodeID, w float64) {
	b.AddArc(u, v, w)
	b.AddArc(v, u, w)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Build validates the accumulated data and returns the immutable Graph.
// It fails on out-of-range endpoints, negative or non-finite weights, and
// self-loops (road networks have none, and shortest-path pre-computation
// assumes their absence).
func (b *Builder) Build() (*Graph, error) {
	n := len(b.nodes)
	for i := range b.tails {
		u, v, w := b.tails[i], b.heads[i], b.wgts[i]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: arc %d has endpoint out of range [0,%d): %d->%d", i, n, u, v)
		}
		if u == v {
			return nil, fmt.Errorf("graph: arc %d is a self-loop at node %d", i, u)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: arc %d (%d->%d) has invalid weight %v", i, u, v, w)
		}
	}
	g := &Graph{nodes: b.nodes}
	g.off, g.dst, g.wgt = buildCSR(n, b.tails, b.heads, b.wgts)
	g.roff, g.rdst, g.rwgt = buildCSR(n, b.heads, b.tails, b.wgts)
	g.computeBounds()
	return g, nil
}

func buildCSR(n int, tails, heads []NodeID, wgts []float64) ([]int32, []NodeID, []float64) {
	off := make([]int32, n+1)
	for _, t := range tails {
		off[t+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	dst := make([]NodeID, len(tails))
	wgt := make([]float64, len(tails))
	cur := make([]int32, n)
	copy(cur, off[:n])
	for i, t := range tails {
		p := cur[t]
		dst[p] = heads[i]
		wgt[p] = wgts[i]
		cur[t]++
	}
	// Sort each adjacency list by target for deterministic iteration order.
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		sortArcs(dst[lo:hi], wgt[lo:hi])
	}
	return off, dst, wgt
}

func sortArcs(dst []NodeID, wgt []float64) {
	sort.Sort(&arcSorter{dst, wgt})
}

type arcSorter struct {
	dst []NodeID
	wgt []float64
}

func (s *arcSorter) Len() int { return len(s.dst) }
func (s *arcSorter) Less(i, j int) bool {
	if s.dst[i] != s.dst[j] {
		return s.dst[i] < s.dst[j]
	}
	return s.wgt[i] < s.wgt[j]
}
func (s *arcSorter) Swap(i, j int) {
	s.dst[i], s.dst[j] = s.dst[j], s.dst[i]
	s.wgt[i], s.wgt[j] = s.wgt[j], s.wgt[i]
}

func (g *Graph) computeBounds() {
	if len(g.nodes) == 0 {
		return
	}
	g.minX, g.maxX = g.nodes[0].X, g.nodes[0].X
	g.minY, g.maxY = g.nodes[0].Y, g.nodes[0].Y
	for _, nd := range g.nodes[1:] {
		g.minX = math.Min(g.minX, nd.X)
		g.maxX = math.Max(g.maxX, nd.X)
		g.minY = math.Min(g.minY, nd.Y)
		g.maxY = math.Max(g.maxY, nd.Y)
	}
}

// ErrDisconnected is reported by CheckStronglyConnected for graphs where some
// node cannot reach, or be reached from, node 0.
var ErrDisconnected = errors.New("graph: not strongly connected")

// CheckStronglyConnected verifies that every node reaches and is reached from
// node 0 (for road networks built from bidirectional segments this is plain
// connectivity). Air-index pre-computation requires it: inter-region distance
// matrices must be finite.
func (g *Graph) CheckStronglyConnected() error {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	if c := g.reachCount(0, false); c != n {
		return fmt.Errorf("%w: only %d/%d nodes reachable from node 0", ErrDisconnected, c, n)
	}
	if c := g.reachCount(0, true); c != n {
		return fmt.Errorf("%w: only %d/%d nodes reach node 0", ErrDisconnected, c, n)
	}
	return nil
}

func (g *Graph) reachCount(src NodeID, reverse bool) int {
	seen := make([]bool, g.NumNodes())
	stack := []NodeID{src}
	seen[src] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var dst []NodeID
		if reverse {
			dst, _ = g.In(v)
		} else {
			dst, _ = g.Out(v)
		}
		for _, d := range dst {
			if !seen[d] {
				seen[d] = true
				count++
				stack = append(stack, d)
			}
		}
	}
	return count
}

// EuclideanDistance returns the straight-line distance between two nodes.
func (g *Graph) EuclideanDistance(u, v NodeID) float64 {
	a, b := g.nodes[u], g.nodes[v]
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// Diameter estimates the graph's weighted diameter by running a double
// sweep: the eccentricity of the node farthest from an arbitrary start.
// It is a lower bound on the true diameter, adequate for sizing the
// path-length buckets of the paper's Figure 10.
func (g *Graph) Diameter(sssp func(g *Graph, src NodeID) []float64) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	dist := sssp(g, 0)
	far := NodeID(0)
	for v, d := range dist {
		if !math.IsInf(d, 1) && d > dist[far] {
			far = NodeID(v)
		}
	}
	dist = sssp(g, far)
	best := 0.0
	for _, d := range dist {
		if !math.IsInf(d, 1) && d > best {
			best = d
		}
	}
	return best
}

// OutOffset returns the global arc index of v's first outgoing arc: the arc
// at position i of Out(v) has global index OutOffset(v)+i. Global arc indexes
// identify arcs compactly (ArcFlag stores one bit vector per arc).
func (g *Graph) OutOffset(v NodeID) int { return int(g.off[v]) }
