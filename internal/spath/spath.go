// Package spath implements the shortest-path algorithms of the paper's
// Section 2.1 that need no pre-computation: Dijkstra's algorithm and A*
// search with a pluggable lower bound. It also provides the shortest-path
// tree representation that the server-side pre-computation (EB/NR border
// distances, ArcFlag, Landmark, HiTi, SPQ) builds on.
package spath

import (
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/pq"
)

// Inf is the distance assigned to unreached nodes.
var Inf = math.Inf(1)

// Tree is a single-source shortest-path tree.
type Tree struct {
	Source graph.NodeID
	// Dist[v] is the shortest distance from Source to v, Inf if unreachable.
	Dist []float64
	// Parent[v] is v's predecessor on a shortest path from Source,
	// graph.Invalid for the source and unreachable nodes.
	Parent []graph.NodeID
	// PopOrder lists settled nodes in the order Dijkstra popped them
	// (non-decreasing distance). Parents always precede children, which the
	// pre-computation passes exploit for linear-time tree aggregation.
	PopOrder []graph.NodeID
	// Popped is the number of settled nodes (== len(PopOrder)).
	Popped int
}

// Dijkstra computes the complete shortest-path tree from src over the
// forward adjacency of g.
func Dijkstra(g *graph.Graph, src graph.NodeID) *Tree {
	return dijkstraCSR(g, src, false)
}

// DijkstraReverse computes shortest distances *to* src, i.e. Dijkstra over
// the reverse adjacency. Dist[v] is then the distance from v to src.
func DijkstraReverse(g *graph.Graph, src graph.NodeID) *Tree {
	return dijkstraCSR(g, src, true)
}

// Distances is an adapter with the signature expected by
// (*graph.Graph).Diameter.
func Distances(g *graph.Graph, src graph.NodeID) []float64 {
	return Dijkstra(g, src).Dist
}

func dijkstraCSR(g *graph.Graph, src graph.NodeID, reverse bool) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Source:   src,
		Dist:     make([]float64, n),
		Parent:   make([]graph.NodeID, n),
		PopOrder: make([]graph.NodeID, 0, n),
	}
	for i := range t.Dist {
		t.Dist[i] = Inf
		t.Parent[i] = graph.Invalid
	}
	h := pq.New(n)
	t.Dist[src] = 0
	h.Push(int32(src), 0)
	for h.Len() > 0 {
		item, d := h.Pop()
		v := graph.NodeID(item)
		t.PopOrder = append(t.PopOrder, v)
		var dst []graph.NodeID
		var wgt []float64
		if reverse {
			dst, wgt = g.In(v)
		} else {
			dst, wgt = g.Out(v)
		}
		for i, u := range dst {
			nd := d + wgt[i]
			if nd < t.Dist[u] {
				t.Dist[u] = nd
				t.Parent[u] = v
				h.PushOrDecrease(int32(u), nd)
			}
		}
	}
	t.Popped = len(t.PopOrder)
	return t
}

// PathTo reconstructs the node sequence from the tree source to dst by
// walking parents backwards. It returns nil if dst is unreachable.
func (t *Tree) PathTo(dst graph.NodeID) []graph.NodeID {
	if math.IsInf(t.Dist[dst], 1) {
		return nil
	}
	var rev []graph.NodeID
	for v := dst; v != graph.Invalid; v = t.Parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PointToPoint runs Dijkstra from s, stopping as soon as t is settled.
// It returns the distance, the path, and the number of settled nodes.
// The distance is Inf and the path nil when t is unreachable.
func PointToPoint(g *graph.Graph, s, t graph.NodeID) (float64, []graph.NodeID, int) {
	return AStar(g, s, t, nil)
}

// AStar runs A* from s to t using lb as an admissible lower bound on the
// remaining distance to t (paper Section 2.1, [5]). A nil lb degenerates to
// Dijkstra. It returns the distance, the path, and the number of settled
// nodes; distance Inf and a nil path when t is unreachable.
//
// lb must satisfy lb(v) <= d(v, t) for correctness; consistent bounds (such
// as Landmark's triangle-inequality bounds) additionally guarantee each node
// is settled once.
func AStar(g *graph.Graph, s, t graph.NodeID, lb func(graph.NodeID) float64) (float64, []graph.NodeID, int) {
	filter := func(graph.NodeID, int) bool { return true }
	return AStarFiltered(g, s, t, lb, filter)
}

// AStarFiltered is AStar restricted to arcs accepted by allowArc, which
// receives the tail node and the global arc index (graph.OutOffset(tail)+i
// for the i-th outgoing arc). ArcFlag's client search uses it to consider
// only arcs whose flag bit for the target's partition is set.
//
// The implementation re-opens nodes whose g-value improves after they were
// settled and stops only when the minimum f-key reaches the best known
// distance to t. This keeps the search exact under merely *admissible*
// (not necessarily consistent) bounds — which arise on lossy channels,
// where Landmark treats nodes with lost distance vectors as bound 0.
func AStarFiltered(g *graph.Graph, s, t graph.NodeID, lb func(graph.NodeID) float64, allowArc func(tail graph.NodeID, arcIdx int) bool) (float64, []graph.NodeID, int) {
	sc := acquireScratch(g.NumNodes())
	defer sc.release()
	dist, parent, h := sc.dist, sc.parent, sc.heap
	dist[s] = 0
	sc.touched = append(sc.touched, s)
	key := 0.0
	if lb != nil {
		key = lb(s)
	}
	h.Push(int32(s), key)
	settled := 0
	best := Inf
	for h.Len() > 0 {
		item, fkey := h.Pop()
		v := graph.NodeID(item)
		if fkey >= best {
			break // no remaining entry can improve on the best route to t
		}
		settled++
		d := dist[v]
		if v == t {
			best = d
			continue
		}
		dst, wgt := g.Out(v)
		base := g.OutOffset(v)
		for i, u := range dst {
			if !allowArc(v, base+i) {
				continue
			}
			nd := d + wgt[i]
			if nd < dist[u] {
				if math.IsInf(dist[u], 1) {
					sc.touched = append(sc.touched, u)
				}
				dist[u] = nd
				parent[u] = v
				k := nd
				if lb != nil {
					k += lb(u)
				}
				h.PushOrDecrease(int32(u), k)
			}
		}
	}
	if math.IsInf(best, 1) {
		return Inf, nil, settled
	}
	return best, treePath(parent, s, t), settled
}

// Search is reusable point-to-point search state over an ID space: the
// distance and parent arrays plus the heap. A search explores a small part
// of a large network, so initialising n-sized arrays per query (580 KB at
// germany scale) would cost more than the search; instead a search puts back
// only the entries the previous one labelled. A client that answers a
// stream of queries holds one Search; the zero value is ready to use.
type Search struct {
	dist    []float64
	parent  []graph.NodeID
	heap    *pq.Min
	touched []graph.NodeID // nodes whose dist/parent the last search wrote
}

// prepare puts back what the last search labelled — afterwards every dist
// is Inf, every parent graph.Invalid and the heap empty — and sizes the
// state for an ID space of n nodes.
func (sc *Search) prepare(n int) {
	for _, v := range sc.touched {
		sc.dist[v], sc.parent[v] = Inf, graph.Invalid
	}
	sc.touched = sc.touched[:0]
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.parent = make([]graph.NodeID, n)
		sc.touched = make([]graph.NodeID, 0, n) // a node is noted once, when first labelled
		for i := range sc.dist {
			sc.dist[i], sc.parent[i] = Inf, graph.Invalid
		}
	}
	if sc.heap == nil {
		sc.heap = pq.New(n)
	}
	sc.heap.Reset(n) // a search that met its bound leaves entries behind
}

var p2pPool = sync.Pool{New: func() any { return new(Search) }}

// acquireScratch returns a clean pooled Search able to hold n nodes.
func acquireScratch(n int) *Search {
	sc := p2pPool.Get().(*Search)
	sc.prepare(n)
	return sc
}

func (sc *Search) release() { p2pPool.Put(sc) }

func treePath(parent []graph.NodeID, s, t graph.NodeID) []graph.NodeID {
	var rev []graph.NodeID
	for v := t; v != graph.Invalid; v = parent[v] {
		rev = append(rev, v)
		if v == s {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathCost sums the arc weights along path in g. It returns Inf if some
// consecutive pair is not connected by an arc, making it usable as a path
// validity check in tests.
func PathCost(g *graph.Graph, path []graph.NodeID) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		w, ok := g.ArcWeight(path[i], path[i+1])
		if !ok {
			return Inf
		}
		total += w
	}
	return total
}
