// Package hiti adapts HiTi [9] to the broadcast model (paper Section 3.2).
// The network is partitioned by a regular grid of cells; cells are grouped
// 2×2 recursively into higher-level subgraphs, forming a tree. For every
// subgraph at every level the shortest-path distances among its border
// nodes are pre-computed and broadcast as super-edges; cross-cell raw arcs
// are broadcast alongside. HiTi is the one competitor that can tune
// selectively (index first, then only the two terminal cells' data) — but
// the index itself is several times the network size, which is exactly the
// deficiency the paper demonstrates (Table 1: the longest cycle of all;
// Table 2: infeasible under an 8 MB heap on every network).
//
// The client computes exact distances; paths are not expanded (expansion
// would require receiving further cells' data), so HiTi results carry a nil
// path. See DESIGN.md.
package hiti

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/partition"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// Options configure the HiTi adaptation.
type Options struct {
	// Depth is the hierarchy depth: the leaf grid is 2^Depth × 2^Depth
	// cells. Depth 3 (64 leaves) suits moderate networks.
	Depth int
}

// superEdge is one pre-computed border-pair distance within a subgraph.
type superEdge struct {
	level uint8
	sub   uint16
	b1    graph.NodeID
	b2    graph.NodeID
	d     float64
}

// cutArc is a raw arc crossing a leaf-cell boundary, annotated with its
// endpoints' cells so the client can assign memberships.
type cutArc struct {
	u, v         graph.NodeID
	w            float64
	cellU, cellV uint16
}

// Server is the HiTi broadcast side.
type Server struct {
	opts   Options
	g      *graph.Graph
	grid   *partition.Grid
	cellOf []int
	supers []superEdge
	cuts   []cutArc
	cycle  *broadcast.Cycle
	pre    time.Duration
}

// New builds the HiTi hierarchy over g and assembles the cycle.
func New(g *graph.Graph, opts Options) (*Server, error) {
	if opts.Depth == 0 {
		opts.Depth = 3
	}
	if opts.Depth < 1 || opts.Depth > 6 {
		return nil, fmt.Errorf("hiti: depth %d out of range [1,6]", opts.Depth)
	}
	side := 1 << opts.Depth
	grid, err := partition.NewGrid(g, side, side)
	if err != nil {
		return nil, fmt.Errorf("hiti: %w", err)
	}
	s := &Server{opts: opts, g: g, grid: grid}
	start := time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	s.precompute()
	s.pre = time.Since(start) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	s.assemble()
	return s, nil
}

func (s *Server) side() int { return 1 << s.opts.Depth }

// subAt returns the subgraph index of leaf cell c at the given level
// (level 0 = leaves, level Depth = the whole network).
func subAt(c, side, level int) int {
	cx, cy := c%side, c/side
	sx, sy := cx>>level, cy>>level
	return sy*(side>>level) + sx
}

// precompute builds super-edges bottom-up. At level 0 a cell's subgraph is
// its raw sub-network; at level l>0 it is the children's border nodes
// connected by their super-edges plus the raw cut arcs between the
// children. By induction, a subgraph's border-pair distances are exact
// within-subgraph shortest-path distances.
func (s *Server) precompute() {
	g := s.g
	side := s.side()
	s.cellOf = make([]int, g.NumNodes())
	for v, nd := range g.Nodes() {
		s.cellOf[v] = s.grid.RegionOf(nd.X, nd.Y)
	}
	borderAt := make([][]bool, s.opts.Depth)
	for l := range borderAt {
		borderAt[l] = make([]bool, g.NumNodes())
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		dst, wgt := g.Out(u)
		for i, v := range dst {
			if s.cellOf[u] != s.cellOf[v] {
				s.cuts = append(s.cuts, cutArc{u, v, wgt[i], uint16(s.cellOf[u]), uint16(s.cellOf[v])})
			}
			for l := 0; l < s.opts.Depth; l++ {
				if subAt(s.cellOf[u], side, l) != subAt(s.cellOf[v], side, l) {
					borderAt[l][u] = true
					borderAt[l][v] = true
				}
			}
		}
	}

	// Level 0.
	cellNodes := make([][]graph.NodeID, side*side)
	for v := 0; v < g.NumNodes(); v++ {
		cellNodes[s.cellOf[v]] = append(cellNodes[s.cellOf[v]], graph.NodeID(v))
	}
	var search spath.Search
	var cell spath.SubNetwork
	prev := make(map[int]*spath.SubNetwork) // keyed by level-(l-1) subgraph id
	for c := 0; c < side*side; c++ {
		// The cell's raw sub-network: every arc with both ends in the cell.
		cell.Reset(g.NumNodes())
		var borders []graph.NodeID
		for _, v := range cellNodes[c] {
			dst, wgt := g.Out(v)
			for i, d := range dst {
				if s.cellOf[d] == c {
					cell.AddArc(v, d, wgt[i])
				}
			}
			if borderAt[0][v] {
				borders = append(borders, v)
			}
		}
		prev[c] = s.contract(&search, 0, uint16(c), borders, &cell)
	}

	// Levels 1..Depth-1 (the root level needs no super-edges: no query
	// graph ever abstracts the whole network).
	for l := 1; l < s.opts.Depth; l++ {
		subs := side >> l
		next := make(map[int]*spath.SubNetwork)
		for sy := 0; sy < subs; sy++ {
			for sx := 0; sx < subs; sx++ {
				si := sy*subs + sx
				h := spath.NewSubNetwork(g.NumNodes())
				nodes := map[graph.NodeID]bool{}
				// The four children at level l-1.
				childSide := side >> (l - 1)
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						ci := (2*sy+dy)*childSide + (2*sx + dx)
						child := prev[ci]
						if child == nil {
							continue
						}
						child.ForEach(func(v graph.NodeID) {
							nodes[v] = true
							for _, a := range child.Arcs(v) {
								h.AddArc(v, a.To, a.Weight)
							}
						})
					}
				}
				for _, ca := range s.cuts {
					if subAt(int(ca.cellU), side, l) == si && subAt(int(ca.cellV), side, l) == si &&
						subAt(int(ca.cellU), side, l-1) != subAt(int(ca.cellV), side, l-1) {
						h.AddArc(ca.u, ca.v, ca.w)
						nodes[ca.u] = true
						nodes[ca.v] = true
					}
				}
				// Contract in sorted border order: contract appends super
				// edges in the order given, so map order here would leak the
				// process map seed into the index packet stream.
				var borders []graph.NodeID
				for v := range nodes {
					if borderAt[l][v] {
						borders = append(borders, v)
					}
				}
				sort.Slice(borders, func(i, j int) bool { return borders[i] < borders[j] })
				next[si] = s.contract(&search, uint8(l), uint16(si), borders, h)
			}
		}
		prev = next
	}
}

// contract runs the search with no target from every border node over the
// subgraph net, records super-edges between border pairs and returns the
// subgraph's super-edge network.
func (s *Server) contract(search *spath.Search, level uint8, sub uint16, borders []graph.NodeID, net *spath.SubNetwork) *spath.SubNetwork {
	out := spath.NewSubNetwork(s.g.NumNodes())
	for _, b := range borders {
		search.RunNetwork(net, b, graph.Invalid, nil)
		for _, b2 := range borders {
			if b2 == b {
				continue
			}
			if d := search.Dist[b2]; !math.IsInf(d, 1) {
				s.supers = append(s.supers, superEdge{level, sub, b, b2, d})
				out.AddArc(b, b2, d)
			}
		}
	}
	// Ensure isolated borders still appear as nodes.
	for _, b := range borders {
		if !out.Has(b) {
			out.AddNode(b, 0, 0, nil)
		}
	}
	return out
}

// assemble lays out the cycle: one index section (hierarchy meta +
// directory + super-edges + cut arcs) followed by per-cell data sections.
func (s *Server) assemble() {
	side := s.side()
	cells := side * side
	cellNodes := make([][]graph.NodeID, cells)
	for v := 0; v < s.g.NumNodes(); v++ {
		cellNodes[s.cellOf[v]] = append(cellNodes[s.cellOf[v]], graph.NodeID(v))
	}
	dataPkts := make([][]packet.Packet, cells)
	for c := 0; c < cells; c++ {
		dataPkts[c] = netdata.EncodeNodes(s.g, cellNodes[c], nil, nil)
	}

	build := func(dirStart []int) []packet.Packet {
		w := packet.NewWriter(packet.KindIndex)
		minX, minY, maxX, maxY := s.grid.Bounds()
		var meta packet.Enc
		meta.U32(uint32(s.g.NumNodes()))
		meta.U8(uint8(s.opts.Depth))
		meta.F32(minX)
		meta.F32(minY)
		meta.F32(maxX)
		meta.F32(maxY)
		meta.U32(uint32(len(s.supers)))
		meta.U32(uint32(len(s.cuts)))
		w.Add(packet.TagHiTiMeta, meta.Bytes())
		// Directory: per cell, data start and packet count.
		const perDir = 12
		for c0 := 0; c0 < cells; c0 += perDir {
			end := c0 + perDir
			if end > cells {
				end = cells
			}
			var e packet.Enc
			e.U16(uint16(c0))
			e.U8(uint8(end - c0))
			for c := c0; c < end; c++ {
				e.U32(uint32(dirStart[c]))
				e.U16(uint16(len(dataPkts[c])))
			}
			w.Add(packet.TagRegionOffsets, e.Bytes())
		}
		// Super-edges, batched.
		const perSE = 7
		for i := 0; i < len(s.supers); i += perSE {
			end := i + perSE
			if end > len(s.supers) {
				end = len(s.supers)
			}
			var e packet.Enc
			e.U8(uint8(end - i))
			for _, se := range s.supers[i:end] {
				e.U8(se.level)
				e.U16(se.sub)
				e.U32(uint32(se.b1))
				e.U32(uint32(se.b2))
				e.F32(se.d)
			}
			w.Add(packet.TagHiTiEdge, e.Bytes())
		}
		// Cut arcs, batched (level marker 0xFF).
		const perCut = 7
		for i := 0; i < len(s.cuts); i += perCut {
			end := i + perCut
			if end > len(s.cuts) {
				end = len(s.cuts)
			}
			var e packet.Enc
			e.U8(0xFF)
			e.U8(uint8(end - i))
			for _, ca := range s.cuts[i:end] {
				e.U32(uint32(ca.u))
				e.U32(uint32(ca.v))
				e.F32(ca.w)
				e.U16(ca.cellU)
				e.U16(ca.cellV)
			}
			w.Add(packet.TagHiTiEdge, e.Bytes())
		}
		return w.Packets()
	}

	// Two passes: directory values depend on the index length, which does
	// not depend on the directory values (fixed-width entries).
	nIdx := len(build(make([]int, cells)))
	dirStart := make([]int, cells)
	pos := nIdx
	for c := 0; c < cells; c++ {
		dirStart[c] = pos
		pos += len(dataPkts[c])
	}
	idx := build(dirStart)
	if len(idx) != nIdx {
		panic("hiti: index size changed between passes")
	}

	asm := broadcast.NewAssembler()
	asm.Append(packet.KindIndex, -1, "HiTi index", idx)
	for c := 0; c < cells; c++ {
		asm.Append(packet.KindData, c, fmt.Sprintf("cell %d", c), dataPkts[c])
	}
	s.cycle = asm.Finish()
}

// Name implements scheme.Server.
func (s *Server) Name() string { return "HiTi" }

// Cycle implements scheme.Server.
func (s *Server) Cycle() *broadcast.Cycle { return s.cycle }

// PrecomputeTime implements scheme.Server.
func (s *Server) PrecomputeTime() time.Duration { return s.pre }

// NewClient implements scheme.Server.
func (s *Server) NewClient() scheme.Client { return &Client{} }

// Client receives the whole index, then selectively tunes to the two
// terminal cells' data, builds the HiTi query graph and runs Dijkstra.
type Client struct{}

// Name implements scheme.Client.
func (c *Client) Name() string { return "HiTi" }

// Query implements scheme.Client.
func (c *Client) Query(t *broadcast.Tuner, q scheme.Query) (scheme.Result, error) {
	var mem metrics.Mem

	// The single index section starts the cycle. Bootstrap: listen until an
	// intact packet's next-index pointer names it, sleep there, and listen
	// while the headers say index (its length is in the meta record, which
	// may be lost). The first non-index packet ends the section. It is data:
	// stash it so the data phase does not wait a whole cycle to see it
	// again. A payload is only valid until the next reception
	// (broadcast.Feed), so the stash keeps a copy. Lost index packets are
	// fetched again in later cycles.
	st := &clientState{}
	var plan broadcast.Plan
	var stash packet.Packet
	stashPos := -1
	for ptr, tries := -1, 0; ; tries++ {
		abs := t.Pos()
		if ptr < 0 && tries > 10*t.CycleLen() {
			return scheme.Result{}, fmt.Errorf("hiti: no intact packet on channel")
		}
		if ptr >= 0 && abs > ptr+t.CycleLen() {
			break
		}
		p, ok := t.Listen()
		if ptr < 0 {
			if ok {
				ptr = abs + int(p.NextIndex)
				t.SleepTo(ptr)
			}
			continue
		}
		if p.Kind != packet.KindIndex {
			if ok {
				stash, stashPos = p, abs%t.CycleLen()
				stash.Payload = slices.Clone(p.Payload)
			}
			break
		}
		if !ok {
			plan.Want(0, abs%t.CycleLen(), 1)
			continue
		}
		st.process(p)
	}
	index := func(_, _ int, p packet.Packet) { st.process(p) }
	t.Fetch(&plan, index)
	t.Recover(&plan, index)
	if !st.haveMeta || !st.complete() {
		return scheme.Result{}, fmt.Errorf("hiti: index incomplete")
	}
	// The paper's HiTi client holds the entire index in memory.
	mem.Alloc(st.indexBytes())

	start := time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	side := 1 << st.depth
	grid, err := partition.NewGridFromBounds(side, side, st.minX, st.minY, st.maxX, st.maxY)
	if err != nil {
		return scheme.Result{}, fmt.Errorf("hiti: %w", err)
	}
	cellS := grid.RegionOf(q.SX, q.SY)
	cellT := grid.RegionOf(q.TX, q.TY)
	members := memberSet(cellS, cellT, side, st.depth)
	cpu := time.Since(start) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"

	// Receive the two terminal cells' data, less the stashed packet.
	coll := netdata.NewCollector(st.numNodes, &mem)
	if stashPos >= 0 {
		coll.Process(stashPos, stash)
	}
	cells := []int{cellS, cellT}
	if cellT == cellS {
		cells = cells[:1]
	}
	for _, cell := range cells {
		start, n := st.dir[cell].start, st.dir[cell].n
		if n > 0 && start == stashPos {
			start, n = start+1, n-1
		}
		plan.Want(cell, start, n)
	}
	data := func(_, cyclePos int, p packet.Packet) { coll.Process(cyclePos, p) }
	t.Fetch(&plan, data)
	t.Recover(&plan, data)

	start = time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	// Build the query graph: raw terminal cells + member super-edges +
	// cut arcs between different members.
	g2 := coll.Net
	for _, se := range st.supers {
		if members[subKey(int(se.level), int(se.sub))] {
			g2.AddArc(se.b1, se.b2, se.d)
		}
	}
	memberOfCell := func(cell int) int {
		for l := 0; l <= st.depth; l++ {
			k := subKey(l, subAt(cell, side, l))
			if members[k] {
				return k
			}
		}
		return -1
	}
	for _, ca := range st.cuts {
		if memberOfCell(int(ca.cellU)) != memberOfCell(int(ca.cellV)) {
			g2.AddArc(ca.u, ca.v, ca.w)
		}
	}
	mem.Alloc(metrics.DistEntryBytes * g2.NumPresent())
	r := spath.DijkstraNetwork(g2, q.S, q.T)
	cpu += time.Since(start) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"

	dist := r.Dist
	if math.IsInf(dist, 1) && q.S == q.T {
		dist = 0
	}
	return scheme.Result{
		Dist: dist,
		Metrics: metrics.Query{
			TuningPackets:  t.Tuning(),
			LatencyPackets: t.Latency(),
			PeakMemBytes:   mem.Peak(),
			CPU:            cpu,
		},
	}, nil
}

// subKey packs (level, subgraph id) into one int.
func subKey(level, sub int) int { return level<<20 | sub }

// memberSet computes the HiTi query-graph membership: {leafS, leafT} plus,
// walking each leaf up to the root, the siblings at every level — excluding
// any subgraph that contains either terminal cell. The members tile the
// grid disjointly.
func memberSet(cellS, cellT, side, depth int) map[int]bool {
	members := map[int]bool{
		subKey(0, cellS): true,
		subKey(0, cellT): true,
	}
	contains := func(level, sub, cell int) bool { return subAt(cell, side, level) == sub }
	for _, leaf := range []int{cellS, cellT} {
		cx, cy := leaf%side, leaf/side
		for l := 0; l < depth; l++ {
			// The 2x2 group at level l within the parent at level l+1.
			px, py := (cx>>l)&^1, (cy>>l)&^1
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := px+dx, py+dy
					sub := sy*(side>>l) + sx
					if contains(l, sub, cellS) || contains(l, sub, cellT) {
						continue
					}
					members[subKey(l, sub)] = true
				}
			}
		}
	}
	return members
}

// clientState accumulates the decoded index.
type clientState struct {
	haveMeta   bool
	numNodes   int
	depth      int
	minX, minY float64
	maxX, maxY float64
	nSupers    int
	nCuts      int

	dir    map[int]struct{ start, n int }
	supers []superEdge
	cuts   []cutArc
}

func (st *clientState) process(p packet.Packet) {
	for rec := range packet.All(p.Payload) {
		switch rec.Tag {
		case packet.TagHiTiMeta:
			d := packet.NewDec(rec.Data)
			st.numNodes = int(d.U32())
			st.depth = int(d.U8())
			st.minX = d.F32()
			st.minY = d.F32()
			st.maxX = d.F32()
			st.maxY = d.F32()
			st.nSupers = int(d.U32())
			st.nCuts = int(d.U32())
			if !d.Err() {
				st.haveMeta = true
			}
		case packet.TagRegionOffsets:
			if st.dir == nil {
				st.dir = map[int]struct{ start, n int }{}
			}
			d := packet.NewDec(rec.Data)
			c0 := int(d.U16())
			cnt := int(d.U8())
			for i := 0; i < cnt; i++ {
				start := int(d.U32())
				n := int(d.U16())
				if d.Err() {
					return
				}
				st.dir[c0+i] = struct{ start, n int }{start, n}
			}
		case packet.TagHiTiEdge:
			d := packet.NewDec(rec.Data)
			first := d.U8()
			if first == 0xFF {
				cnt := int(d.U8())
				for i := 0; i < cnt; i++ {
					u := graph.NodeID(d.U32())
					v := graph.NodeID(d.U32())
					w := d.F32()
					cu := d.U16()
					cv := d.U16()
					if d.Err() {
						return
					}
					st.cuts = append(st.cuts, cutArc{u, v, w, cu, cv})
				}
			} else {
				cnt := int(first)
				for i := 0; i < cnt; i++ {
					level := d.U8()
					sub := d.U16()
					b1 := graph.NodeID(d.U32())
					b2 := graph.NodeID(d.U32())
					dd := d.F32()
					if d.Err() {
						return
					}
					st.supers = append(st.supers, superEdge{level, sub, b1, b2, dd})
				}
			}
		}
	}
}

func (st *clientState) complete() bool {
	return st.haveMeta && len(st.supers) == st.nSupers && len(st.cuts) == st.nCuts &&
		len(st.dir) == (1<<st.depth)*(1<<st.depth)
}

// indexBytes estimates the retained index footprint: super-edges and cut
// arcs dominate.
func (st *clientState) indexBytes() int {
	return 16*len(st.supers) + 20*len(st.cuts) + 8*len(st.dir)
}
