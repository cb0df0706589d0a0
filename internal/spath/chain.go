package spath

import (
	"repro/internal/graph"
	"repro/internal/pq"
)

// ChainSearch is a reusable single-source shortest-path search over one
// graph for callers that run it from many sources (the border
// pre-computation runs one per border node). It computes what Dijkstra
// computes — Dist bit for bit, Parent whenever shortest paths are unique —
// but only junctions go through the heap, under the chain rule it shares
// with (*Search).Dijkstra (DESIGN.md §5): a node u reached from p whose arcs
// lead nowhere but back to p and to at most one other node — the interior
// and dead ends of a road between two junctions, 94 % of the germany
// network — relaxes that onward arc at once, adding one arc weight to its
// own label per step exactly as Dijkstra would (no contracted chain weights,
// which would re-associate the float sums), until a label stops improving
// or reaches a junction. The rule looks only at u's own arcs on arrival, so
// one-way streets and parallel arcs need no classification pass: a node
// with a real choice is simply pushed.
//
// The invariant that keeps the heap minimum final: every labelled node
// either has relaxed its arcs with its current label or is on the heap
// keyed by it. A walked node satisfies it the moment it is labelled: its
// onward arc is relaxed at once, and its arc back to p cannot improve p. A
// chain node's label may be lowered again by a walk from the chain's other
// end; each end starts at most one walk, so the work is O(n + m) additions
// plus a heap over the junctions.
//
// On an exact tie between two shortest paths Dijkstra's parent is decided by
// heap pop order; here it is decided by walk order. Both are valid
// shortest-path trees and both are deterministic functions of the graph.
type ChainSearch struct {
	g    *graph.Graph
	heap *pq.Min

	// Dist[v] is the shortest distance from the last Run's source to v, Inf
	// if unreachable; Parent[v] is v's predecessor, graph.Invalid for the
	// source and unreachable nodes. Both are overwritten by the next Run.
	Dist   []float64
	Parent []graph.NodeID
}

// NewChainSearch returns a search over g.
func NewChainSearch(g *graph.Graph) *ChainSearch {
	n := g.NumNodes()
	return &ChainSearch{
		g:      g,
		heap:   pq.New(n),
		Dist:   make([]float64, n),
		Parent: make([]graph.NodeID, n),
	}
}

// Run computes the shortest-path tree from src into Dist and Parent.
//
//air:noalloc
func (s *ChainSearch) Run(src graph.NodeID) {
	g, dist, parent := s.g, s.Dist, s.Parent
	for i := range dist {
		dist[i] = Inf
	}
	for i := range parent {
		parent[i] = graph.Invalid
	}
	dist[src] = 0
	// The source relaxes every arc, whatever its degree: it has no arc it
	// came in on.
	v, d := src, 0.0
	for {
		dst, wgt := g.Out(v)
		for i, u := range dst {
			// Offer u the label nd through p; while that improves a node
			// with no choice, carry on along its onward arc.
			p, nd := v, d+wgt[i]
			for nd < dist[u] {
				dist[u] = nd
				parent[u] = p
				next, w := g.Out(u)
				if len(next) > 2 || len(next) == 2 && next[0] != p && next[1] != p {
					s.heap.PushOrDecrease(int32(u), nd)
					break
				}
				if len(next) == 0 {
					break
				}
				on := 0
				if len(next) == 2 && next[0] == p {
					on = 1
				}
				// A dead end's onward arc leads back to p and fails the test.
				p, u, nd = u, next[on], nd+w[on]
			}
		}
		if s.heap.Len() == 0 {
			return
		}
		item, key := s.heap.Pop()
		v, d = graph.NodeID(item), key
	}
}
