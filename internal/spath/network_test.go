package spath

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pq"
)

// referenceSearch is the textbook heap loop (*Search).Dijkstra replaced,
// kept as its oracle: every node a relaxation improves goes through the
// heap, and the search stops when t is popped.
func referenceSearch(net *SubNetwork, s, t graph.NodeID) Result {
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
			var path []graph.NodeID
			for ; v != graph.Invalid; v = parent[v] {
				path = append(path, v)
			}
			slices.Reverse(path)
			return Result{Dist: d, Path: path}
		}
		for _, a := range net.Arcs(v) {
			if nd := d + a.Weight; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = v
				h.PushOrDecrease(int32(a.To), nd)
			}
		}
	}
	return Result{Dist: Inf}
}

// pathCost sums path over net's arcs, taking the lightest of parallel arcs,
// left to right as the search adds; ok is false when a step has no arc
// (Arcs has none for a node that was not received).
func pathCost(net *SubNetwork, path []graph.NodeID) (cost float64, ok bool) {
	for i := 0; i+1 < len(path); i++ {
		step := Inf
		for _, a := range net.Arcs(path[i]) {
			if a.To == path[i+1] {
				step = min(step, a.Weight)
			}
		}
		if step == Inf {
			return 0, false
		}
		cost += step
	}
	return cost, true
}

// FuzzSubNetworkSearch builds a partial network from the input — up to 16
// nodes, some never received, and up to 52 arcs that are two-way, one-way
// or two-way with a weight per direction, with parallel arcs and self-loops
// wherever a pair repeats — and runs one reused Search over every (s, t)
// pair against the heap-loop oracle, with no bound, with a random admissible
// bound, and with no target. Dist must be bit-equal and Path a real
// s–t path over received arcs that sums to Dist. Weights are small integers
// (zero included: ties abound), or, when the first byte's top bit is set,
// distinct powers of two, which make every shortest path unique, so Path
// must then equal the oracle's node for node.
func FuzzSubNetworkSearch(f *testing.F) {
	const oneWay, asym = 0x40, 0x80
	f.Add([]byte{4, 0, 0x10, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})                         // a ring, integer weights
	f.Add([]byte{0x86, 3, 0x01, 0, 1, 1, 2, 2, 3, 3, 4, 4, 1, 1, 5, 5, 6, 6, 7})          // a cycle with a tail, node 0 absent
	f.Add([]byte{3, 7, 0, oneWay | 0, 1, 1, 2, asym | 2, 0x33, 3, 4, 4, 0, 0, 0})         // one-way and asymmetric arcs, zero weights
	f.Add([]byte{0x8e, 11, 0x22, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 9, 10, 9, 10}) // a tree with branches, a parallel road
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0]&0x7f)%15
		distinct := data[0]&0x80 != 0
		mult := 1 + int(data[1])%52
		absent := data[2] // node v < 8 is never received when bit v is set
		arcs := 0
		weight := func(b byte) float64 {
			arcs++
			if distinct {
				return math.Ldexp(1, arcs*mult%53-1)
			}
			return float64(b >> 4)
		}
		out := make([][]graph.Arc, n)
		add := func(u, v graph.NodeID, w float64) {
			out[u] = append(out[u], graph.Arc{To: v, Weight: w})
		}
		for i := 3; i+1 < len(data) && arcs+2 <= 52; i += 2 {
			u, v := graph.NodeID(int(data[i]&0x3f)%n), graph.NodeID(int(data[i+1]&0x0f)%n)
			switch data[i] & 0xc0 {
			case oneWay:
				add(u, v, weight(data[i+1]))
			case asym:
				add(u, v, weight(data[i+1]))
				add(v, u, weight(data[i]))
			default:
				w := weight(data[i+1])
				add(u, v, w)
				add(v, u, w)
			}
		}
		// Build into a network that held something else first, so a Reset
		// that left a node, an arc or a position behind shows as a
		// difference from a fresh build. Arcs arrive through ReserveArcs, as
		// the reception path writes them; odd nodes with arcs arrive through
		// it alone, taking its coordinates.
		net, fresh := NewSubNetwork(n+3), NewSubNetwork(n)
		for v := graph.NodeID(0); int(v) < n+3; v++ {
			net.AddNode(v, 1, 2, []graph.Arc{{To: (v + 1) % graph.NodeID(n+3), Weight: 1}})
		}
		net.Reset(n)
		for v, vArcs := range out {
			if v < 8 && absent&(1<<v) != 0 {
				continue
			}
			for _, sn := range []*SubNetwork{net, fresh} {
				if v%2 == 0 || len(vArcs) == 0 {
					sn.AddNode(graph.NodeID(v), float64(v), 0, nil)
				}
				slots, _ := sn.ReserveArcs(graph.NodeID(v), float64(v), 1, len(vArcs))
				copy(slots, vArcs)
				for _, a := range vArcs {
					sn.Grow(a.To)
				}
			}
		}
		for v := graph.NodeID(0); int(v) < n+3; v++ {
			x, y, ok := net.Pos(v)
			fx, fy, fok := fresh.Pos(v)
			if net.Has(v) != fresh.Has(v) || !slices.Equal(net.Arcs(v), fresh.Arcs(v)) || x != fx || y != fy || ok != fok {
				t.Fatalf("node %d after Reset: present %v arcs %v at (%v,%v), fresh build %v %v at (%v,%v)",
					v, net.Has(v), net.Arcs(v), x, y, fresh.Has(v), fresh.Arcs(v), fx, fy)
			}
		}
		if net.NumPresent() != fresh.NumPresent() {
			t.Fatalf("%d nodes present after Reset, fresh build %d", net.NumPresent(), fresh.NumPresent())
		}

		// Three arms per pair over one reused Search: the point-to-point
		// search; A* under a random admissible, inconsistent bound (half the
		// nodes bound 0, as if their landmark vector were lost, the rest a
		// random fraction of the true remaining distance, floored, so every
		// key is an exact sum); and, per source, the search with no target,
		// whose labels must all be final.
		rng := rand.New(rand.NewSource(int64(len(data))*131 + int64(data[1])))
		rem := make([][]float64, n) // rem[tt][v]: the oracle's distance v -> tt
		for tt := range rem {
			rem[tt] = make([]float64, n)
			for v := range rem[tt] {
				rem[tt][v] = referenceSearch(net, graph.NodeID(v), graph.NodeID(tt)).Dist
			}
		}
		bound := make([]float64, n)
		lb := func(v graph.NodeID) float64 { return bound[v] }
		var sc Search
		check := func(arm string, s, tt graph.NodeID, got, want Result) {
			t.Helper()
			if got.Dist != want.Dist {
				t.Fatalf("%s %d->%d: Dist %v, oracle %v", arm, s, tt, got.Dist, want.Dist)
			}
			if got.Dist == Inf {
				if got.Path != nil {
					t.Fatalf("%s %d->%d: unreachable, yet path %v", arm, s, tt, got.Path)
				}
				return
			}
			if len(got.Path) == 0 || got.Path[0] != s || got.Path[len(got.Path)-1] != tt {
				t.Fatalf("%s %d->%d: path %v does not join the endpoints", arm, s, tt, got.Path)
			}
			if cost, ok := pathCost(net, got.Path); !ok || cost != got.Dist {
				t.Fatalf("%s %d->%d: path %v costs %v (real %v), Dist %v", arm, s, tt, got.Path, cost, ok, got.Dist)
			}
			if distinct && !slices.Equal(got.Path, want.Path) {
				t.Fatalf("%s %d->%d: path %v, oracle %v", arm, s, tt, got.Path, want.Path)
			}
		}
		for s := graph.NodeID(0); int(s) < n; s++ {
			for tt := graph.NodeID(0); int(tt) < n; tt++ {
				want := referenceSearch(net, s, tt)
				sc.RunNetwork(net, s, tt, nil)
				check("search", s, tt, sc.To(s, tt), want)

				for v := range bound {
					bound[v] = 0
					if r := rem[tt][v]; r != Inf && rng.Intn(2) == 0 {
						bound[v] = math.Floor(r * rng.Float64())
					}
				}
				sc.RunNetwork(net, s, tt, lb)
				check("A*", s, tt, sc.To(s, tt), want)
			}
			sc.RunNetwork(net, s, graph.Invalid, nil)
			for tt := graph.NodeID(0); int(tt) < n; tt++ {
				check("no target", s, tt, sc.To(s, tt), referenceSearch(net, s, tt))
			}
		}
	})
}
