package spath

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/pq"
)

// ChainNodes classifies g's nodes for ChainSearch: chain[v] is true when
// v's out-neighbours and in-neighbours are the same set of at most two
// nodes (no parallel arcs) — the interior and dead ends of a road between
// two junctions, 94 % of the germany network. A search that enters such a node
// from one neighbour can only leave through the other, so it never needs a
// heap to decide what comes next. Everything else is a junction, including
// a one-way street (in-set ≠ out-set): the rule "leave by the arc you did
// not come in on" needs the way back to exist. The classification depends
// on topology alone, so one slice serves every weight version of a graph.
func ChainNodes(g *graph.Graph) []bool {
	chain := make([]bool, g.NumNodes())
	for v := range chain {
		out, _ := g.Out(graph.NodeID(v))
		in, _ := g.In(graph.NodeID(v))
		// Adjacency lists are sorted by target, so equal sets are equal
		// lists and a parallel arc shows as a repeated neighbour. A node
		// with no arcs at all counts: it is reached only as a source.
		chain[v] = len(out) <= 2 && slices.Equal(out, in) && (len(out) < 2 || out[0] != out[1])
	}
	return chain
}

// ChainSearch is a reusable single-source shortest-path search over one
// graph for callers that run it from many sources (the border
// pre-computation runs one per border node). It computes what Dijkstra
// computes — Dist bit for bit, Parent whenever shortest paths are unique —
// but only junctions go through the heap: a relaxation that improves a
// chain node carries straight on along the chain's one onward arc, adding
// one arc weight to the predecessor's label per step exactly as Dijkstra
// would (no contracted chain weights, which would re-associate the float
// sums), until it stops improving or reaches a junction.
//
// The invariant that keeps the heap minimum final: every labelled node that
// is not on the heap has already relaxed its out-arcs with its current
// label. Settled junctions satisfy it as in Dijkstra; a chain node
// satisfies it the moment it is labelled, because the walk that labelled it
// relaxes its onward arc at once (its other arc leads back to the
// predecessor, which a non-negative weight cannot improve). A chain node's
// label may be lowered again by a walk from the chain's other end; each end
// starts at most one walk, so the work is O(n + m) additions plus a heap
// over the junctions.
//
// On an exact tie between two shortest paths Dijkstra's parent is decided by
// heap pop order; here it is decided by walk order. Both are valid
// shortest-path trees and both are deterministic functions of the graph.
type ChainSearch struct {
	g     *graph.Graph
	chain []bool
	heap  *pq.Min

	// Dist[v] is the shortest distance from the last Run's source to v, Inf
	// if unreachable; Parent[v] is v's predecessor, graph.Invalid for the
	// source and unreachable nodes. Both are overwritten by the next Run.
	Dist   []float64
	Parent []graph.NodeID
}

// NewChainSearch returns a search over g; chain is ChainNodes(g), shared
// read-only between the searches of concurrent workers.
func NewChainSearch(g *graph.Graph, chain []bool) *ChainSearch {
	n := g.NumNodes()
	return &ChainSearch{
		g:      g,
		chain:  chain,
		heap:   pq.New(n),
		Dist:   make([]float64, n),
		Parent: make([]graph.NodeID, n),
	}
}

// Run computes the shortest-path tree from src into Dist and Parent.
//
//air:noalloc
func (s *ChainSearch) Run(src graph.NodeID) {
	g, chain, dist, parent := s.g, s.chain, s.Dist, s.Parent
	for i := range dist {
		dist[i] = Inf
	}
	for i := range parent {
		parent[i] = graph.Invalid
	}
	dist[src] = 0
	// The source is settled like a junction whatever its class: inside a
	// chain it has no arc it came in on, so it starts a walk each way.
	v, d := src, 0.0
	for {
		dst, wgt := g.Out(v)
		for i, u := range dst {
			// Offer u the label nd through p; while that improves a chain
			// node, carry on along the chain.
			p, nd := v, d+wgt[i]
			for nd < dist[u] {
				dist[u] = nd
				parent[u] = p
				if !chain[u] {
					s.heap.PushOrDecrease(int32(u), nd)
					break
				}
				next, w := g.Out(u)
				if len(next) < 2 {
					break // dead end: its only arc leads back to p
				}
				onward := 0
				if next[0] == p {
					onward = 1
				}
				p, u, nd = u, next[onward], nd+w[onward]
			}
		}
		if s.heap.Len() == 0 {
			return
		}
		item, key := s.heap.Pop()
		v, d = graph.NodeID(item), key
	}
}
