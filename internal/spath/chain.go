package spath

import "repro/internal/graph"

// Run is the graph kernel: the search from s over g, following arcs in
// direction dir, into Dist and Parent. With a target t it stops once t's
// label is final (the stop rule below); with t == graph.Invalid it labels
// every node s reaches — the border storm runs one such search per border
// node, SPQ one per node, ArcFlag one backward search per border node.
//
// It computes what the textbook heap loop computes — Dist bit for bit,
// Parent whenever shortest paths are unique — but only junctions go
// through the heap, under the chain rule it shares with RunNetwork
// (DESIGN.md §5): a node u reached from p whose arcs lead nowhere but back
// to p and to at most one other node — the interior and dead ends of a road
// between two junctions, 94 % of the germany network — relaxes that onward
// arc at once, adding one arc weight to its own label per step exactly as
// Dijkstra would (no contracted chain weights, which would re-associate the
// float sums), until a label stops improving or reaches a junction. The
// rule looks only at u's own arcs on arrival, so one-way streets and
// parallel arcs need no classification pass: a node with a real choice is
// simply pushed.
//
// The invariant that keeps the heap minimum final: every labelled node
// either has relaxed its arcs with its current label or is on the heap
// keyed by it. A walked node satisfies it the moment it is labelled: its
// onward arc is relaxed at once, and its arc back to p cannot improve p. A
// chain node's label may be lowered again by a walk from the chain's other
// end; each end starts at most one walk, so the work is O(n + m) additions
// plus a heap over the junctions. So once the heap minimum reaches Dist[t],
// no unfinished node can lead to t more cheaply, and the search stops
// without ever popping t, which a walk may have labelled in passing.
//
// On an exact tie between two shortest paths Dijkstra's parent is decided by
// heap pop order; here it is decided by walk order. Both are valid
// shortest-path trees and both are deterministic functions of the graph.
//
//air:noalloc
func (sc *Search) Run(g *graph.Graph, dir Direction, s, t graph.NodeID) {
	sc.prepare(g.NumNodes())
	off, dst, wgt := g.CSR(dir == In)
	dist, parent, heap, touched := sc.Dist, sc.Parent, sc.heap, sc.touched
	// A search with no target labels most of the graph: rather than note
	// each node, it leaves the next prepare one linear pass.
	note := t != graph.Invalid
	sc.all = !note
	dist[s] = 0
	touched = append(touched, s)
	// The source relaxes every arc, whatever its degree: it has no arc it
	// came in on.
	for v, d := s, 0.0; t == graph.Invalid || d < dist[t]; {
		for i := off[v]; i < off[v+1]; i++ {
			// Offer u the label nd through p; while that improves a node
			// with no choice, carry on along its onward arc.
			p, u, nd := v, dst[i], d+wgt[i]
			for nd < dist[u] {
				if note && dist[u] == Inf {
					touched = append(touched, u)
				}
				dist[u], parent[u] = nd, p
				lo, hi := off[u], off[u+1]
				next := dst[lo:hi]
				if len(next) > 2 || len(next) == 2 && next[0] != p && next[1] != p {
					heap.PushOrDecrease(int32(u), nd)
					break
				}
				if len(next) == 0 {
					break
				}
				on := lo
				if len(next) == 2 && next[0] == p {
					on++
				}
				// A dead end's onward arc leads back to p and fails the test.
				p, u, nd = u, dst[on], nd+wgt[on]
			}
		}
		if heap.Len() == 0 {
			break
		}
		item, key := heap.Pop()
		v, d = graph.NodeID(item), key
	}
	sc.touched = touched
}
