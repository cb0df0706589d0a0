package spath

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// edge is one hand-built road: a two-way segment, or one-way from u to v.
type edge struct {
	u, v   graph.NodeID
	w      float64
	oneWay bool
}

func buildRoads(n int, edges []edge) *graph.Graph {
	b := graph.NewBuilder(n, 2*len(edges))
	for i := 0; i < n; i++ {
		b.AddNode(float64(i), 0)
	}
	for _, e := range edges {
		if e.oneWay {
			b.AddArc(e.u, e.v, e.w)
		} else {
			b.AddEdge(e.u, e.v, e.w)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// matchesDijkstra runs the kernel from every node of g and requires Dist
// bit-equal and Parent equal to Dijkstra's. Callers pass graphs whose
// shortest paths are unique, so Parent has one right answer.
func matchesDijkstra(t *testing.T, g *graph.Graph) {
	t.Helper()
	s := NewChainSearch(g)
	for src := 0; src < g.NumNodes(); src++ {
		want := Dijkstra(g, graph.NodeID(src))
		s.Run(graph.NodeID(src))
		for v := range want.Dist {
			if s.Dist[v] != want.Dist[v] || s.Parent[v] != want.Parent[v] {
				t.Fatalf("source %d node %d: dist/parent %v/%d, Dijkstra %v/%d",
					src, v, s.Dist[v], s.Parent[v], want.Dist[v], want.Parent[v])
			}
		}
	}
}

func TestChainSearchHandBuilt(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []edge
	}{
		{
			// Two junctions (0, 4) joined by a three-node chain and by a
			// shorter-in-hops, longer-in-weight chain through 5; spurs at
			// both junctions make them junctions. Sources 1..3 sit inside a
			// chain and must walk both ways; the walks from 0 and 4 meet
			// inside the chains and one overwrites the other's labels.
			name: "source inside a chain",
			n:    8,
			edges: []edge{
				{u: 0, v: 1, w: 1.25}, {u: 1, v: 2, w: 2.5}, {u: 2, v: 3, w: 0.75}, {u: 3, v: 4, w: 3.125},
				{u: 0, v: 5, w: 4.5}, {u: 5, v: 4, w: 6.0625},
				{u: 0, v: 6, w: 0.5}, {u: 4, v: 7, w: 0.375},
			},
		},
		{
			// A dead-end spur (3), a dead-end chain of two (4-5) and a
			// junction (1) they hang off.
			name: "dead ends",
			n:    6,
			edges: []edge{
				{u: 0, v: 1, w: 1.5}, {u: 1, v: 2, w: 2.25}, {u: 1, v: 3, w: 0.125},
				{u: 1, v: 4, w: 3.5}, {u: 4, v: 5, w: 1.0625},
			},
		},
		{
			// Nodes 3-4 form their own component and 5 is isolated: from 0
			// they stay at Inf with no parent, and from 5 nothing is reached.
			name:  "unreachable component",
			n:     6,
			edges: []edge{{u: 0, v: 1, w: 1.5}, {u: 1, v: 2, w: 2.5}, {u: 3, v: 4, w: 0.5}},
		},
		{
			// Zero-weight segments inside a chain and out of a junction: a
			// label equal to its predecessor's must still propagate, and
			// the strict comparison must not loop on it.
			name: "zero-weight arcs",
			n:    7,
			edges: []edge{
				{u: 0, v: 1, w: 0}, {u: 1, v: 2, w: 1.5}, {u: 2, v: 3, w: 0}, {u: 3, v: 4, w: 2.5},
				{u: 2, v: 5, w: 0}, {u: 5, v: 6, w: 0.25},
			},
		},
		{
			// 1 is entered only from 0 and left only to 2 (in-set ≠ out-set);
			// 4 has two out-neighbours but one in-neighbour. Reached from 3,
			// 4 walks on to 5; 1 has one arc, and reached from 0 walks on to
			// 2; 2, reached from 1, has a choice and goes on the heap.
			name: "one-way arcs",
			n:    6,
			edges: []edge{
				{u: 0, v: 1, w: 1.5, oneWay: true}, {u: 1, v: 2, w: 2.5, oneWay: true}, {u: 2, v: 0, w: 0.75},
				{u: 2, v: 3, w: 1.25}, {u: 3, v: 4, w: 0.5}, {u: 4, v: 5, w: 4.5, oneWay: true}, {u: 5, v: 0, w: 8.5},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			matchesDijkstra(t, buildRoads(c.n, c.edges))
		})
	}
}

// TestChainSearchParallelArcsAreJunctions: two arcs to the same neighbour
// make "the other arc" ambiguous, so the node goes through the heap — and a
// walk that offers the heavier parallel arc first must still end on the
// lighter one.
func TestChainSearchParallelArcsAreJunctions(t *testing.T) {
	b := graph.NewBuilder(4, 8)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(0, 1, 1.5)
	b.AddEdge(1, 2, 0.75)
	b.AddEdge(2, 3, 4.25)
	b.AddEdge(2, 3, 0.125)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	matchesDijkstra(t, g)
}

func TestChainSearchRunDoesNotAllocate(t *testing.T) {
	g := randomRoads(400, 1)
	s := NewChainSearch(g)
	for src := 0; src < g.NumNodes(); src++ {
		s.Run(graph.NodeID(src)) // warm-up: the heap grows to its high-water mark
	}
	src, n := 0, g.NumNodes()
	if allocs := testing.AllocsPerRun(200, func() {
		s.Run(graph.NodeID(src % n))
		src++
	}); allocs != 0 {
		t.Fatalf("Run allocates %v times per source", allocs)
	}
}

// randomRoads builds a road-like network: a ring of junctions, each pair
// of ring neighbours joined by a chain of 0–4 degree-2 nodes, plus a few
// chords and dead-end spurs. Weights are random floats, so shortest paths
// are unique with overwhelming probability and sums round.
func randomRoads(junctions int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(4*junctions, 10*junctions)
	for i := 0; i < junctions; i++ {
		b.AddNode(rng.Float64()*100, rng.Float64()*100)
	}
	road := func(u, v graph.NodeID) {
		for k := rng.Intn(5); k > 0; k-- {
			mid := b.AddNode(rng.Float64()*100, rng.Float64()*100)
			b.AddEdge(u, mid, 0.1+rng.Float64()*9)
			u = mid
		}
		b.AddEdge(u, v, 0.1+rng.Float64()*9)
	}
	for i := 0; i < junctions; i++ {
		road(graph.NodeID(i), graph.NodeID((i+1)%junctions))
		if rng.Intn(2) == 0 {
			if j := rng.Intn(junctions); j != i {
				road(graph.NodeID(i), graph.NodeID(j))
			}
		}
		if rng.Intn(4) == 0 {
			road(graph.NodeID(i), b.AddNode(rng.Float64()*100, rng.Float64()*100))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestChainSearchMatchesDijkstraOnRandomRoads(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		matchesDijkstra(t, randomRoads(60, seed))
	}
}

// FuzzBorderKernel builds a small directed graph from the input — up to 16
// nodes and 52 arcs; each byte pair is a road that is two-way, one-way, or
// two-way with a different weight per direction, parallel roads allowed —
// and requires the kernel to agree with Dijkstra from every source. Arc
// weights are distinct powers of two below 2^53: every simple path then has
// a distinct, exactly representable length, so shortest paths are unique
// and Parent must match node for node, not merely describe some
// shortest-path tree.
func FuzzBorderKernel(f *testing.F) {
	const oneWay, asym = 0x80, 0xc0
	f.Add([]byte{4, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})                      // a ring: every node a chain node
	f.Add([]byte{6, 5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 1, 1, 5, 5, 6, 6, 7})          // a cycle with a tail
	f.Add([]byte{3, 7, 0, 1, oneWay | 0, 1, 1, 2, asym | 2, 3, 3, 4, 4, 0})      // a parallel one-way arc, an asymmetric road
	f.Add([]byte{14, 11, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 9, 10}) // a tree with three branches, a far component
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%15
		// The k-th arc weighs 2^(k*mult mod 53 - 1); the exponents are
		// distinct for k in 1..52 because 53 is prime.
		mult := 1 + int(data[1])%52
		arcs := 0
		weight := func() float64 {
			arcs++
			return math.Ldexp(1, arcs*mult%53-1)
		}
		b := graph.NewBuilder(n, 52)
		for i := 0; i < n; i++ {
			b.AddNode(float64(i), 0)
		}
		for i := 2; i+1 < len(data) && arcs+2 <= 52; i += 2 {
			u, v := graph.NodeID(int(data[i]&0x3f)%n), graph.NodeID(int(data[i+1])%n)
			if u == v {
				continue
			}
			switch data[i] & 0xc0 {
			case oneWay:
				b.AddArc(u, v, weight())
			case asym:
				b.AddArc(u, v, weight())
				b.AddArc(v, u, weight())
			default:
				b.AddEdge(u, v, weight())
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		matchesDijkstra(t, g)
	})
}
