package spath

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// Result is the outcome of a point-to-point search.
type Result struct {
	Dist float64        // Inf when unreachable in the network
	Path []graph.NodeID // nil when unreachable
}

// RunNetwork is the network kernel: Run's chain rule and stop rule over a
// SubNetwork, where a node that was not received is labelled but has no
// arcs to relax. With a target t it stops once t's label is final; with
// t == graph.Invalid it labels every node s reaches (HiTi's super-edges,
// the memory-bound client's region skeletons).
//
// lb, when not nil, is a lower bound on every node's remaining distance to
// t, added to a junction's heap key when it is pushed: A* (Section 2.1),
// which Landmark's client runs. Walked nodes never consult it. The search
// re-opens a node whose label improves after it was popped and stops only
// when the minimum key reaches Dist[t], so it stays exact when lb is
// admissible but not consistent — which arises on lossy channels, where
// Landmark treats a node whose distance vector was lost as bound 0.
func (sc *Search) RunNetwork(net *SubNetwork, s, t graph.NodeID, lb func(graph.NodeID) float64) {
	sc.prepare(net.NumNodes())
	dist, parent, adj, present := sc.Dist, sc.Parent, net.adj, net.present
	dist[s] = 0
	sc.touched = append(sc.touched, s)
	// The source relaxes every arc, whatever its degree: it has no arc it
	// came in on.
	for v, key := s, 0.0; t == graph.Invalid || key < dist[t]; {
		d := dist[v]
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
					k := nd
					if lb != nil {
						k += lb(u)
					}
					sc.heap.PushOrDecrease(int32(u), k)
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
		item, k := sc.heap.Pop()
		v, key = graph.NodeID(item), k
	}
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

	// arena backs the per-node arc slices ReserveArcs hands out: fresh
	// adjacency is carved out of one chunk instead of one heap allocation
	// per node.
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

// Grow extends the ID space to cover v. Every node an arc names must be
// covered before a search runs (ReserveArcs leaves that to its caller).
func (s *SubNetwork) Grow(v graph.NodeID) {
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
	s.Grow(v)
	for _, a := range arcs {
		s.Grow(a.To)
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
	s.Grow(v)
	s.Grow(to)
	s.markPresent(v)
	s.adj[v] = append(s.adj[v], graph.Arc{To: to, Weight: w})
}

// ReserveArcs makes v present — taking (x, y) as its coordinates when v is
// new, which added reports — and appends n arc slots to its adjacency,
// returning them for the caller to fill in place: the reception path
// decodes a record's arcs straight into the network, one copy per arc. A
// slot holds whatever an earlier query left there until written. The
// caller must Grow the ID space over every target it writes.
func (s *SubNetwork) ReserveArcs(v graph.NodeID, x, y float64, n int) (slots []graph.Arc, added bool) {
	s.Grow(v)
	added = !s.present[v]
	s.markPresent(v)
	if added {
		s.pos[v] = [2]float32{float32(x), float32(y)}
	}
	cur := s.adj[v]
	k := len(cur)
	if k+n > cap(cur) {
		cur = append(s.allocArcs(k+n), cur...)
	}
	s.adj[v] = cur[:k+n]
	return s.adj[v][k:], added
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

// compareArcs orders arcs by (target, weight). Arcs equal in both are
// identical values, so the sort needs no stability.
func compareArcs(a, b graph.Arc) int {
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.Weight, b.Weight)
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
		slices.SortFunc(arcs, compareArcs)
	}
}
