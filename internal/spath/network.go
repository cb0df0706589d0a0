package spath

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/pq"
)

// Result is the outcome of a point-to-point search over a SubNetwork.
type Result struct {
	Dist float64        // Inf when unreachable in the network
	Path []graph.NodeID // nil when unreachable
}

// DijkstraNetwork runs the point-to-point search from s to t over net: the
// "search in the union of received regions" step every client scheme ends
// with (paper Sections 4.2, 5.2).
func DijkstraNetwork(net *SubNetwork, s, t graph.NodeID) Result {
	return new(Search).Dijkstra(net, s, t)
}

// Dijkstra is DijkstraNetwork over this Search's reusable state. It computes
// what the textbook heap loop computes — Dist bit for bit, Path whenever the
// shortest path is unique — but only junctions go through the heap, under
// the chain rule it shares with ChainSearch (DESIGN.md §5): a node u reached
// from p whose arcs lead nowhere but back to p and to at most one other node
// relaxes that onward arc at once, adding one arc weight to its own label
// exactly as Dijkstra would, and the walk carries on until a label stops
// improving or reaches a node with a real choice, which is pushed.
//
// The invariant that keeps the stop rule sound: every labelled node either
// has relaxed its arcs with its current label, or is on the heap keyed by
// it. (The arc back to p needs no relaxing: a non-negative weight cannot
// improve p through u.) So once the heap minimum reaches dist[t], no
// unfinished node can lead to t more cheaply, and the search stops without
// ever popping t, which a walk may have labelled in passing.
//
// On an exact tie between two shortest paths the parent is decided by walk
// order where the heap loop decides it by pop order; both are valid
// shortest-path trees and both are deterministic functions of the network.
func (sc *Search) Dijkstra(net *SubNetwork, s, t graph.NodeID) Result {
	sc.prepare(net.NumNodes())
	dist, parent, adj, present := sc.dist, sc.parent, net.adj, net.present
	dist[s] = 0
	sc.touched = append(sc.touched, s)
	// The source relaxes every arc, whatever its degree: it has no arc it
	// came in on.
	for v, d := s, 0.0; d < dist[t]; {
		for _, a := range net.Arcs(v) {
			p, u, nd := v, a.To, d+a.Weight
			for nd < dist[u] {
				if dist[u] == Inf {
					sc.touched = append(sc.touched, u)
				}
				dist[u], parent[u] = nd, p
				if !present[u] {
					break // not received
				}
				arcs := adj[u]
				if len(arcs) > 2 || len(arcs) == 2 && arcs[0].To != p && arcs[1].To != p {
					sc.heap.PushOrDecrease(int32(u), nd)
					break
				}
				if len(arcs) == 0 {
					break
				}
				on := 0
				if len(arcs) == 2 && arcs[0].To == p {
					on = 1
				}
				// A dead end's onward arc leads back to p and fails the test.
				p, u, nd = u, arcs[on].To, nd+arcs[on].Weight
			}
		}
		if sc.heap.Len() == 0 {
			break
		}
		item, key := sc.heap.Pop()
		v, d = graph.NodeID(item), key
	}
	if dist[t] == Inf {
		return Result{Dist: Inf}
	}
	return Result{Dist: dist[t], Path: treePath(parent, s, t)}
}

// SubNetwork is a partial road network keyed by global node IDs: exactly the
// structure a client accumulates while listening to region data. Nodes not
// received have no adjacency and are invisible to the search.
//
// Storage is slice-indexed by node ID (the ID space is dense and known up
// front for every indexed scheme), so the reception hot loop does no map
// hashing and a Reset reuses the backing arrays across queries. A node's
// adjacency and coordinates mean something only while it is present: Reset
// clears the presence flags alone, and a node's old arcs and coordinates are
// dropped when it is next added. Coordinates are kept at float32, the
// precision they travel at on air.
type SubNetwork struct {
	n        int
	adj      [][]graph.Arc // adj[v] is stale unless present[v]
	present  []bool
	pos      [][2]float32 // stale unless present[v]
	nPresent int

	// arena backs the per-node arc slices built by AddArcs: fresh adjacency
	// is carved out of one chunk instead of one heap allocation per node.
	// Windows handed out are capacity-capped (three-index slices), so
	// appends past a window reallocate on the heap and never bleed into a
	// neighbour's arcs.
	arena []graph.Arc
}

// arenaChunk is the arc arena's allocation unit.
const arenaChunk = 2048

// allocArcs returns an empty arc slice with capacity >= c carved from the
// arena (or the heap for outsized requests).
func (s *SubNetwork) allocArcs(c int) []graph.Arc {
	if c > arenaChunk/8 {
		return make([]graph.Arc, 0, c)
	}
	if cap(s.arena)-len(s.arena) < c {
		s.arena = make([]graph.Arc, 0, arenaChunk)
	}
	off := len(s.arena)
	s.arena = s.arena[:off+c]
	return s.arena[off : off : off+c]
}

// NewSubNetwork returns an empty partial network over an ID space of size n.
func NewSubNetwork(n int) *SubNetwork {
	s := &SubNetwork{}
	s.Reset(n)
	return s
}

// Reset empties the network for an ID space of size n, retaining the
// backing arrays — including per-node arc capacity — so a client reusing
// one SubNetwork across queries stops paying adjacency growth after its
// first few queries. It writes one presence byte per ID and nothing else.
func (s *SubNetwork) Reset(n int) {
	clear(s.present)
	s.n = n
	s.nPresent = 0
	s.ensure(n)
}

// NumNodes returns the ID-space size. It grows automatically when nodes
// with IDs beyond the initial size are added, so a collector built before
// the network size is known (e.g. Dijkstra's index-less cycle) still works.
func (s *SubNetwork) NumNodes() int { return s.n }

// ensure extends the backing arrays to hold at least n IDs.
func (s *SubNetwork) ensure(n int) {
	if n <= len(s.adj) {
		return
	}
	if n <= cap(s.adj) {
		s.adj = s.adj[:n]
		s.present = s.present[:n]
		s.pos = s.pos[:n]
		return
	}
	// Doubling: a collector that learns the ID space one arriving ID at a
	// time (Dijkstra's index-less cycle) must not copy it once per ID.
	c := max(n, 2*cap(s.adj))
	adj := make([][]graph.Arc, n, c)
	copy(adj, s.adj)
	s.adj = adj
	present := make([]bool, n, c)
	copy(present, s.present)
	s.present = present
	pos := make([][2]float32, n, c)
	copy(pos, s.pos)
	s.pos = pos
}

func (s *SubNetwork) grow(v graph.NodeID) {
	if int(v) >= s.n {
		s.n = int(v) + 1
	}
	s.ensure(s.n)
}

// NumPresent returns how many nodes have been added.
func (s *SubNetwork) NumPresent() int { return s.nPresent }

// Has reports whether node v's adjacency has been added.
func (s *SubNetwork) Has(v graph.NodeID) bool {
	return int(v) < len(s.present) && s.present[v]
}

// AddNode registers node v with its coordinates and (possibly empty)
// outgoing arcs. Re-adding a node replaces its adjacency, which makes
// replaying a region received twice (packet-loss recovery) idempotent.
func (s *SubNetwork) AddNode(v graph.NodeID, x, y float64, arcs []graph.Arc) {
	s.grow(v)
	for _, a := range arcs {
		s.grow(a.To)
	}
	s.markPresent(v)
	s.pos[v] = [2]float32{float32(x), float32(y)}
	if arcs == nil {
		s.adj[v] = s.adj[v][:0] // keep the retained arc capacity
	} else {
		s.adj[v] = arcs
	}
}

// AddArc appends a single outgoing arc to v (used by super-edge graphs).
func (s *SubNetwork) AddArc(v, to graph.NodeID, w float64) {
	s.grow(v)
	s.grow(to)
	s.markPresent(v)
	s.adj[v] = append(s.adj[v], graph.Arc{To: to, Weight: w})
}

// AddArcs appends a batch of outgoing arcs to v — the reception path's
// bulk variant of AddArc: one arena carve per node record instead of
// doubling-growth heap allocations arc by arc.
func (s *SubNetwork) AddArcs(v graph.NodeID, arcs []graph.Arc) {
	if len(arcs) == 0 {
		return
	}
	s.grow(v)
	for _, a := range arcs {
		s.grow(a.To)
	}
	s.markPresent(v)
	cur := s.adj[v]
	if len(cur)+len(arcs) > cap(cur) {
		grown := s.allocArcs(len(cur) + len(arcs))
		cur = append(grown, cur...)
	}
	s.adj[v] = append(cur, arcs...)
}

// markPresent makes v present, dropping what an earlier query left in its
// slots; the adjacency keeps its capacity.
func (s *SubNetwork) markPresent(v graph.NodeID) {
	if !s.present[v] {
		s.present[v] = true
		s.nPresent++
		s.adj[v] = s.adj[v][:0]
		s.pos[v] = [2]float32{}
	}
}

// Remove drops node v and its adjacency (memory-bound processing discards
// region data after contraction into super-edges).
func (s *SubNetwork) Remove(v graph.NodeID) {
	if s.Has(v) {
		s.present[v] = false
		s.nPresent--
	}
}

// Arcs returns the raw arc slice of v (no copy); nil when v is not present.
func (s *SubNetwork) Arcs(v graph.NodeID) []graph.Arc {
	if !s.Has(v) {
		return nil
	}
	return s.adj[v]
}

// Pos returns the stored coordinates of v and whether v is present.
func (s *SubNetwork) Pos(v graph.NodeID) (x, y float64, ok bool) {
	if !s.Has(v) {
		return 0, 0, false
	}
	return float64(s.pos[v][0]), float64(s.pos[v][1]), true
}

// ForEach calls fn for every present node, in ascending ID order.
func (s *SubNetwork) ForEach(fn func(v graph.NodeID)) {
	for v, p := range s.present {
		if p {
			fn(graph.NodeID(v))
		}
	}
}

// SortAllArcs sorts every present node's arc list by (target, weight): the
// canonical CSR order. Clients that pair per-arc auxiliary data (ArcFlag's
// bit vectors) with adjacency lists by ordinal call this after reception,
// because packet-loss recovery can deliver arc chunks out of order.
func (s *SubNetwork) SortAllArcs() {
	for v, arcs := range s.adj {
		if len(arcs) < 2 || !s.present[v] {
			continue
		}
		sort.Slice(arcs, func(i, j int) bool {
			if arcs[i].To != arcs[j].To {
				return arcs[i].To < arcs[j].To
			}
			return arcs[i].Weight < arcs[j].Weight
		})
	}
}

// DijkstraNetworkFiltered is DijkstraNetwork restricted to arcs accepted by
// allow, which receives the tail node and the arc's ordinal within the
// tail's adjacency list.
func DijkstraNetworkFiltered(net *SubNetwork, s, t graph.NodeID, allow func(tail graph.NodeID, ordinal int) bool) Result {
	n := net.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.NodeID, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = graph.Invalid
	}
	h := pq.New(n)
	dist[s] = 0
	h.Push(int32(s), 0)
	for h.Len() > 0 {
		item, d := h.Pop()
		v := graph.NodeID(item)
		if v == t {
			return Result{Dist: d, Path: treePath(parent, s, t)}
		}
		for i, a := range net.Arcs(v) {
			if !allow(v, i) {
				continue
			}
			nd := d + a.Weight
			if nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = v
				h.PushOrDecrease(int32(a.To), nd)
			}
		}
	}
	return Result{Dist: Inf}
}

// AStarSubNetwork runs A* from s to t over a client sub-network using the
// admissible lower bound lb (nil degrades to Dijkstra). Like
// AStarFiltered, it re-opens improved nodes and stops only when the minimum
// f-key reaches the best known distance, so it stays exact when the bound
// is admissible but not consistent (Landmark under packet loss).
func AStarSubNetwork(net *SubNetwork, s, t graph.NodeID, lb func(graph.NodeID) float64) Result {
	n := net.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.NodeID, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = graph.Invalid
	}
	h := pq.New(n)
	dist[s] = 0
	key := 0.0
	if lb != nil {
		key = lb(s)
	}
	h.Push(int32(s), key)
	best := Inf
	for h.Len() > 0 {
		item, fkey := h.Pop()
		v := graph.NodeID(item)
		if fkey >= best {
			break
		}
		d := dist[v]
		if v == t {
			best = d
			continue
		}
		for _, a := range net.Arcs(v) {
			nd := d + a.Weight
			if nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = v
				k := nd
				if lb != nil {
					k += lb(a.To)
				}
				h.PushOrDecrease(int32(a.To), k)
			}
		}
	}
	if best == Inf {
		return Result{Dist: Inf}
	}
	return Result{Dist: best, Path: treePath(parent, s, t)}
}
