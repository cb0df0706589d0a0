// Package spq adapts the shortest-path quadtree scheme (SPQ, [14]) to the
// broadcast model (paper Section 3.2). For every node v the server runs a
// full single-source search and colors every other node u by the ordinal of
// v's first outgoing arc on the shortest v->u path; the colored points are
// compressed into a region quadtree over the Euclidean plane. The client
// answers a query by repeatedly looking up the target's color in the
// current node's quadtree and following that arc until the target is
// reached. Selective tuning is impossible (Section 3.2), so the client
// receives the entire cycle; the trees make its per-query CPU trivial, but
// the cycle is several times the network size (Table 1) and memory needs
// rule it out on the reference device for every network (Table 2).
package spq

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// Tree node markers in the serialized quadtree. Colors are arc ordinals
// (0..252).
const (
	markInternal = 0xFF
	markEmpty    = 0xFE
	markMixedCap = 0xFD // depth cap reached with mixed colors: fall back to search
)

// maxDepth caps quadtree recursion; deeper mixed blocks degrade to
// markMixedCap, handled like a lost tree.
const maxDepth = 20

// Server is the SPQ broadcast side.
type Server struct {
	g     *graph.Graph
	trees [][]byte
	cycle *broadcast.Cycle
	pre   time.Duration
}

// New computes all shortest-path quadtrees for g and assembles the cycle.
// This is n full single-source searches plus n quadtree constructions — the
// heaviest pre-computation of any scheme here, as in the paper.
func New(g *graph.Graph) (*Server, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("spq: empty graph")
	}
	s := &Server{g: g}
	start := time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	s.computeTrees()
	s.pre = time.Since(start) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	s.assemble()
	return s, nil
}

func (s *Server) computeTrees() {
	g := s.g
	n := g.NumNodes()
	s.trees = make([][]byte, n)
	minX, minY, maxX, maxY := g.Bounds()
	colors := make([]int16, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, nd := range g.Nodes() {
		// Quantize like the on-air format so client lookups agree.
		xs[i] = float64(float32(nd.X))
		ys[i] = float64(float32(nd.Y))
	}
	var search spath.Search
	for v := graph.NodeID(0); int(v) < n; v++ {
		search.Run(g, spath.Out, v, graph.Invalid)
		parent := search.Parent
		// Color every node by the first-arc ordinal: climb the shortest-path
		// tree from u to its nearest colored ancestor, or to the child of v
		// the path leaves by, and color the climbed run with that hop.
		dst, _ := g.Out(v)
		for i := range colors {
			colors[i] = -1
		}
		for u := graph.NodeID(0); int(u) < n; u++ {
			if u == v || colors[u] >= 0 || parent[u] == graph.Invalid {
				continue
			}
			top := u
			for colors[top] < 0 && parent[top] != v {
				top = parent[top]
			}
			c := colors[top]
			if c < 0 {
				c = int16(slices.Index(dst, top))
			}
			for w := u; w != top; w = parent[w] {
				colors[w] = c
			}
			colors[top] = c
		}
		pts := make([]int32, 0, n-1)
		for u := 0; u < n; u++ {
			if u != int(v) && colors[u] >= 0 {
				pts = append(pts, int32(u))
			}
		}
		var buf []byte
		buf = buildQuad(buf, pts, colors, xs, ys,
			float64(float32(minX)), float64(float32(minY)),
			float64(float32(maxX))+1, float64(float32(maxY))+1, 0)
		s.trees[v] = buf
	}
}

// buildQuad serializes a region quadtree in preorder: markInternal followed
// by the four children (NW, NE, SW, SE by x/y midpoints), or a leaf byte
// (color, markEmpty, or markMixedCap at the depth cap).
func buildQuad(buf []byte, pts []int32, colors []int16, xs, ys []float64, x0, y0, x1, y1 float64, depth int) []byte {
	if len(pts) == 0 {
		return append(buf, markEmpty)
	}
	first := colors[pts[0]]
	uniform := true
	for _, p := range pts[1:] {
		if colors[p] != first {
			uniform = false
			break
		}
	}
	if uniform {
		return append(buf, uint8(first))
	}
	if depth >= maxDepth {
		return append(buf, markMixedCap)
	}
	mx, my := (x0+x1)/2, (y0+y1)/2
	var q [4][]int32
	for _, p := range pts {
		i := 0
		if xs[p] >= mx {
			i |= 1
		}
		if ys[p] >= my {
			i |= 2
		}
		q[i] = append(q[i], p)
	}
	buf = append(buf, markInternal)
	buf = buildQuad(buf, q[0], colors, xs, ys, x0, y0, mx, my, depth+1)
	buf = buildQuad(buf, q[1], colors, xs, ys, mx, y0, x1, my, depth+1)
	buf = buildQuad(buf, q[2], colors, xs, ys, x0, my, mx, y1, depth+1)
	buf = buildQuad(buf, q[3], colors, xs, ys, mx, my, x1, y1, depth+1)
	return buf
}

// lookupQuad descends a serialized quadtree to the leaf containing (x, y).
// It returns the leaf byte, or markMixedCap on malformed input.
func lookupQuad(buf []byte, x, y, x0, y0, x1, y1 float64) uint8 {
	pos := 0
	var walk func(x0, y0, x1, y1 float64) uint8
	var skipTree func()
	skipTree = func() {
		if pos >= len(buf) {
			return
		}
		b := buf[pos]
		pos++
		if b == markInternal {
			for i := 0; i < 4; i++ {
				skipTree()
			}
		}
	}
	walk = func(x0, y0, x1, y1 float64) uint8 {
		if pos >= len(buf) {
			return markMixedCap
		}
		b := buf[pos]
		pos++
		if b != markInternal {
			return b
		}
		mx, my := (x0+x1)/2, (y0+y1)/2
		i := 0
		if x >= mx {
			i |= 1
		}
		if y >= my {
			i |= 2
		}
		for k := 0; k < i; k++ {
			skipTree()
		}
		switch i {
		case 0:
			return walk(x0, y0, mx, my)
		case 1:
			return walk(mx, y0, x1, my)
		case 2:
			return walk(x0, my, mx, y1)
		default:
			return walk(mx, my, x1, y1)
		}
	}
	return walk(x0, y0, x1, y1)
}

func (s *Server) assemble() {
	nodes := make([]graph.NodeID, s.g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	asm := broadcast.NewAssembler()
	asm.Append(packet.KindData, -1, "network", netdata.EncodeNodes(s.g, nodes, nil, nil))

	// Quadtrees, chunked: node u32, part u16, parts u16, bytes.
	w := packet.NewWriter(packet.KindAux)
	const chunk = packet.MaxRecord - 8
	for v, tree := range s.trees {
		parts := (len(tree) + chunk - 1) / chunk
		if parts == 0 {
			parts = 1
		}
		for p := 0; p < parts; p++ {
			lo, hi := p*chunk, (p+1)*chunk
			if hi > len(tree) {
				hi = len(tree)
			}
			var e packet.Enc
			e.U32(uint32(v))
			e.U16(uint16(p))
			e.U16(uint16(parts))
			e.B = append(e.B, tree[lo:hi]...)
			w.Add(packet.TagSPQTree, e.Bytes())
		}
	}
	asm.Append(packet.KindAux, -1, "quadtrees", w.Packets())
	s.cycle = asm.Finish()
}

// Name implements scheme.Server.
func (s *Server) Name() string { return "SPQ" }

// Cycle implements scheme.Server.
func (s *Server) Cycle() *broadcast.Cycle { return s.cycle }

// PrecomputeTime implements scheme.Server.
func (s *Server) PrecomputeTime() time.Duration { return s.pre }

// NewClient implements scheme.Server.
func (s *Server) NewClient() scheme.Client { return &Client{} }

// Client receives the whole cycle and chases first-arc colors. Its
// collector and search are reused across queries (scheme.Local).
type Client struct{ scheme.Local }

// Name implements scheme.Client.
func (c *Client) Name() string { return "SPQ" }

// Query implements scheme.Client.
func (c *Client) Query(t *broadcast.Tuner, q scheme.Query) (scheme.Result, error) {
	c.Begin()
	type partial struct {
		parts [][]byte
		got   int
	}
	trees := map[graph.NodeID][]byte{}
	partials := map[graph.NodeID]*partial{}
	c.ReceiveCycle(t, func(_ int, p packet.Packet) {
		for rec := range packet.All(p.Payload) {
			if rec.Tag != packet.TagSPQTree {
				continue
			}
			d := packet.NewDec(rec.Data)
			v := graph.NodeID(d.U32())
			part := int(d.U16())
			parts := int(d.U16())
			if d.Err() || parts == 0 || part >= parts {
				continue
			}
			body := make([]byte, d.Remaining())
			for i := range body {
				body[i] = d.U8()
			}
			pa := partials[v]
			if pa == nil {
				pa = &partial{parts: make([][]byte, parts)}
				partials[v] = pa
			}
			if part < len(pa.parts) && pa.parts[part] == nil {
				pa.parts[part] = body
				pa.got++
				c.Mem.Alloc(len(body))
			}
			if pa.got == len(pa.parts) {
				var full []byte
				for _, b := range pa.parts {
					full = append(full, b...)
				}
				trees[v] = full
				delete(partials, v)
			}
		}
	})

	c.StartCPU()
	net := c.Net()
	net.SortAllArcs()                       // color ordinals refer to CSR arc order
	c.Mem.Alloc(metrics.DistEntryBytes * 2) // chase state
	dist, path := c.chase(net, trees, q)
	c.StopCPU()
	return c.Result(t, dist, path), nil
}

// chase follows first-arc colors from s to t. Nodes whose quadtree is
// missing (loss) or inconclusive (depth cap) fall back to a local Dijkstra
// for the rest of the route, per Section 6.2 ("all adjacent edges of the
// specific node have to be considered by the search").
func (c *Client) chase(net *spath.SubNetwork, trees map[graph.NodeID][]byte, q scheme.Query) (dist float64, path []graph.NodeID) {
	minX, minY, maxX, maxY := netBounds(net)
	path = []graph.NodeID{q.S}
	cur := q.S
	for steps := 0; cur != q.T; steps++ {
		if steps > net.NumNodes()+1 {
			return spath.Inf, nil
		}
		tree, ok := trees[cur]
		color := uint8(markMixedCap)
		if ok {
			color = lookupQuad(tree, q.TX, q.TY, minX, minY, maxX+1, maxY+1)
		}
		arcs := net.Arcs(cur)
		if int(color) >= len(arcs) {
			// Lost or inconclusive tree: finish with a plain search.
			r := c.Dijkstra(net, cur, q.T, nil)
			if r.Path == nil {
				return spath.Inf, nil
			}
			return dist + r.Dist, append(path, r.Path[1:]...)
		}
		dist += arcs[color].Weight
		cur = arcs[color].To
		path = append(path, cur)
	}
	return dist, path
}

// netBounds computes the received network's bounding box; it matches the
// server's because coordinates are float32-quantized on air.
func netBounds(net *spath.SubNetwork) (minX, minY, maxX, maxY float64) {
	first := true
	net.ForEach(func(v graph.NodeID) {
		x, y, _ := net.Pos(v)
		if first {
			minX, minY, maxX, maxY = x, y, x, y
			first = false
			return
		}
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	})
	return minX, minY, maxX, maxY
}
