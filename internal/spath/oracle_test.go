package spath

import (
	"repro/internal/graph"
	"repro/internal/pq"
)

// Tree is a single-source shortest-path tree computed by the textbook heap
// loop: the oracle every kernel test compares against.
type Tree struct {
	Source graph.NodeID
	// Dist[v] is the shortest distance from Source to v, Inf if unreachable.
	Dist []float64
	// Parent[v] is v's predecessor on a shortest path from Source,
	// graph.Invalid for the source and unreachable nodes.
	Parent []graph.NodeID
	// PopOrder lists settled nodes in the order Dijkstra popped them
	// (non-decreasing distance). Parents always precede children.
	PopOrder []graph.NodeID
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

// dijkstraCSR is the heap loop: every node a relaxation improves goes
// through the heap, and a node is final when it pops.
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
	return t
}

// PathTo returns the tree path from the source to v, nil when v is
// unreachable.
func (t *Tree) PathTo(v graph.NodeID) []graph.NodeID {
	if t.Dist[v] == Inf {
		return nil
	}
	var rev []graph.NodeID
	for ; v != graph.Invalid; v = t.Parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
