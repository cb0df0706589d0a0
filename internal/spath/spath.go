// Package spath implements the shortest-path search of the paper's Section
// 2.1 — Dijkstra's algorithm, and A* as its bounded variant — as one
// label-setting kernel over two views: the full CSR *graph.Graph (the
// server's pre-computation and the reference answer) and a SubNetwork, the
// partial network a client collects off the air. Both views run the chain
// rule of DESIGN.md §5 on one reusable scratch type, Search.
package spath

import (
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/pq"
)

// Inf is the distance assigned to unreached nodes.
var Inf = math.Inf(1)

// Direction selects the arcs a graph search follows.
type Direction bool

const (
	// Out searches along arcs: Dist[v] is the distance from the source to v.
	Out Direction = false
	// In searches against arcs: Dist[v] is the distance from v to the
	// source (ArcFlag's backward searches from border nodes).
	In Direction = true
)

// Search is the reusable state both kernels share: the labels, the heap
// and the list of nodes the last search labelled. A search may explore a
// small part of a large ID space, so initialising n-sized arrays per search
// (580 KB at germany scale) would cost more than the search; instead a
// search puts back only the entries the previous one labelled. A caller
// that runs a stream of searches holds one Search; the zero value is ready
// to use. A Search is not safe for concurrent use.
type Search struct {
	// Dist[v] is the last search's label of v: its shortest distance from
	// the source when final, Inf if v was not labelled. Parent[v] is v's
	// predecessor on that path, graph.Invalid for the source and unlabelled
	// nodes. Both may be longer than the ID space searched, and are
	// overwritten by the next search.
	Dist   []float64
	Parent []graph.NodeID

	heap    *pq.Min
	touched []graph.NodeID // nodes the last search labelled, each once
	all     bool           // the last search may have labelled any node; touched is partial
}

// prepare puts back what the last search labelled — afterwards every Dist
// is Inf, every Parent graph.Invalid and the heap empty — and sizes the
// state for an ID space of n nodes.
func (sc *Search) prepare(n int) {
	if sc.all {
		for i := range sc.Dist {
			sc.Dist[i], sc.Parent[i] = Inf, graph.Invalid
		}
		sc.all = false
	}
	for _, v := range sc.touched {
		sc.Dist[v], sc.Parent[v] = Inf, graph.Invalid
	}
	sc.touched = sc.touched[:0]
	if len(sc.Dist) < n {
		sc.Dist = make([]float64, n)
		sc.Parent = make([]graph.NodeID, n)
		sc.touched = make([]graph.NodeID, 0, n) // a node is noted once, when first labelled
		for i := range sc.Dist {
			sc.Dist[i], sc.Parent[i] = Inf, graph.Invalid
		}
	}
	if sc.heap == nil {
		sc.heap = pq.New(n)
	}
	sc.heap.Reset(n) // a search that met its stop rule leaves entries behind
}

// To returns the last search's distance and path from its source s to t.
// It is exact when the search ran to completion or stopped with t as its
// target; the distance is Inf and the path nil when t was not reached.
func (sc *Search) To(s, t graph.NodeID) Result {
	if sc.Dist[t] == Inf {
		return Result{Dist: Inf}
	}
	var rev []graph.NodeID
	for v := t; v != graph.Invalid; v = sc.Parent[v] {
		rev = append(rev, v)
		if v == s {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return Result{Dist: sc.Dist[t], Path: rev}
}

var p2pPool = sync.Pool{New: func() any { return new(Search) }}

// PointToPoint is the reference answer on the full network: the graph
// kernel from s with t as its target, on pooled scratch. It returns the
// distance, the path, and the number of nodes the search labelled; the
// distance is Inf and the path nil when t is unreachable.
func PointToPoint(g *graph.Graph, s, t graph.NodeID) (float64, []graph.NodeID, int) {
	sc := p2pPool.Get().(*Search)
	defer p2pPool.Put(sc)
	sc.Run(g, Out, s, t)
	r := sc.To(s, t)
	return r.Dist, r.Path, len(sc.touched)
}

// Distances is an adapter with the signature expected by
// (*graph.Graph).Diameter: every node's distance from src.
func Distances(g *graph.Graph, src graph.NodeID) []float64 {
	var sc Search
	sc.Run(g, Out, src, graph.Invalid)
	return sc.Dist
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
