// Package arcflag adapts the ArcFlag method [10] to the broadcast model
// (paper Section 3.2). The network is partitioned (kd-tree, 16 regions in
// the paper's tuning); every arc carries a bit vector with one bit per
// region, set when the arc lies on a shortest path into that region. The
// broadcast cycle carries the network data plus the flag vectors — kept in
// separate packets from the adjacency lists so a single loss cannot take
// out both (Section 6.2). The client must receive the whole cycle; its
// benefit is a pruned (hence faster) local search.
package arcflag

import (
	"fmt"
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// Options configure the ArcFlag adaptation.
type Options struct {
	// Regions is the number of kd-tree partitions (the paper fine-tunes 16;
	// more exceeds the reference device's heap).
	Regions int
}

// Server is the ArcFlag broadcast side.
type Server struct {
	opts  Options
	g     *graph.Graph
	kd    *partition.KDTree
	flags [][]uint64 // flags[arc] = region bitset
	cycle *broadcast.Cycle
	pre   time.Duration
}

// New partitions g, computes per-arc flags and assembles the cycle.
func New(g *graph.Graph, opts Options) (*Server, error) {
	if opts.Regions == 0 {
		opts.Regions = 16
	}
	kd, err := partition.NewKDTree(g, opts.Regions)
	if err != nil {
		return nil, fmt.Errorf("arcflag: %w", err)
	}
	s := &Server{opts: opts, g: g, kd: kd}
	start := time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	s.computeFlags()
	s.pre = time.Since(start) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	s.assemble()
	return s, nil
}

// computeFlags runs, for every border node b of every region, a backward
// Dijkstra; each shortest-path tree arc (u -> parent) provably lies on a
// shortest path from u into b's region and gets that region's bit. Arcs
// interior to a region always carry their own region's bit.
func (s *Server) computeFlags() {
	n := s.opts.Regions
	words := (n + 63) / 64
	regions := precompute.BuildRegions(s.g, s.kd)
	s.flags = make([][]uint64, s.g.NumArcs())
	flat := make([]uint64, s.g.NumArcs()*words)
	for i := range s.flags {
		s.flags[i] = flat[i*words : (i+1)*words]
	}
	// Own-region bits.
	for u := graph.NodeID(0); int(u) < s.g.NumNodes(); u++ {
		dst, _ := s.g.Out(u)
		base := s.g.OutOffset(u)
		for i, v := range dst {
			r := regions.Assign[v]
			s.flags[base+i][r/64] |= 1 << (r % 64)
		}
	}
	// Shortest-path bits via backward search from each border node.
	var search spath.Search
	for r := 0; r < n; r++ {
		for _, b := range regions.Borders[r] {
			search.Run(s.g, spath.In, b, graph.Invalid)
			for u := graph.NodeID(0); int(u) < s.g.NumNodes(); u++ {
				p := search.Parent[u]
				if p == graph.Invalid {
					continue
				}
				// The first hop of a shortest u->b path is the arc u->p.
				dst, _ := s.g.Out(u)
				base := s.g.OutOffset(u)
				for i, v := range dst {
					if v == p {
						s.flags[base+i][r/64] |= 1 << (r % 64)
					}
				}
			}
		}
	}
}

// flagBytes is the per-arc flag vector size on air.
func (s *Server) flagBytes() int { return (s.opts.Regions + 7) / 8 }

func (s *Server) assemble() {
	nodes := make([]graph.NodeID, s.g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	asm := broadcast.NewAssembler()

	// A minimal index section carries the kd splits (the client needs the
	// target's region to select the flag bit) and the network size.
	idx := packIndexSplits(s.kd.Splits(), s.g.NumNodes(), s.opts.Regions)
	asm.Append(packet.KindIndex, -1, "AF splits", idx)

	asm.Append(packet.KindData, -1, "network", netdata.EncodeNodes(s.g, nodes, nil, nil))

	// Flag vectors, one record per arc identified by its endpoints (the
	// paper's <id_i, id_j, bit vector> triplets), in separate packets from
	// the adjacency data (Section 6.2). Per-arc framing keeps the unit of
	// loss small: a lost packet costs a handful of flag vectors.
	w := packet.NewWriter(packet.KindAux)
	fb := s.flagBytes()
	for u := graph.NodeID(0); int(u) < s.g.NumNodes(); u++ {
		dst, _ := s.g.Out(u)
		base := s.g.OutOffset(u)
		for i, v := range dst {
			var e packet.Enc
			e.U32(uint32(u))
			e.U32(uint32(v))
			word := s.flags[base+i]
			for by := 0; by < fb; by++ {
				e.U8(uint8(word[by/8] >> (8 * (by % 8))))
			}
			w.Add(packet.TagArcFlags, e.Bytes())
		}
	}
	asm.Append(packet.KindAux, -1, "flags", w.Packets())
	s.cycle = asm.Finish()
}

// packIndexSplits reuses the record format of the core index for the kd
// split sequence, with a leading meta record (numNodes, numRegions).
func packIndexSplits(splits []float64, numNodes, numRegions int) []packet.Packet {
	w := packet.NewWriter(packet.KindIndex)
	var meta packet.Enc
	meta.U32(uint32(numNodes))
	meta.U16(uint16(numRegions))
	w.Add(packet.TagMeta, meta.Bytes())
	const perRec = 25
	for start := 0; start < len(splits); start += perRec {
		end := start + perRec
		if end > len(splits) {
			end = len(splits)
		}
		var e packet.Enc
		e.U16(uint16(start))
		e.U8(uint8(end - start))
		for _, v := range splits[start:end] {
			e.F32(v)
		}
		w.Add(packet.TagKDSplits, e.Bytes())
	}
	return w.Packets()
}

// Name implements scheme.Server.
func (s *Server) Name() string { return "AF" }

// Cycle implements scheme.Server.
func (s *Server) Cycle() *broadcast.Cycle { return s.cycle }

// PrecomputeTime implements scheme.Server.
func (s *Server) PrecomputeTime() time.Duration { return s.pre }

// NewClient implements scheme.Server.
func (s *Server) NewClient() scheme.Client { return &Client{regions: s.opts.Regions} }

// Client receives the whole cycle and runs a flag-pruned Dijkstra. Its
// collector and search are reused across queries (scheme.Local), and so is
// the table it decodes the flag vectors into.
type Client struct {
	scheme.Local
	regions int

	// The query's flag vectors: head[u] is 1 + the index in arcs of the
	// last vector received for an arc out of u (0: none), each entry links
	// to the one received before it, and the vectors' bytes are in vecs.
	head   []int32
	arcs   []flagArc
	vecs   []byte
	splits splitsCollect
}

// flagArc places one received flag vector: arc (u, to)'s bits are
// vecs[off:off+n].
type flagArc struct {
	to     graph.NodeID
	off, n int32
	next   int32
}

// Name implements scheme.Client.
func (c *Client) Name() string { return "AF" }

// Query implements scheme.Client.
func (c *Client) Query(t *broadcast.Tuner, q scheme.Query) (scheme.Result, error) {
	c.Begin()
	c.splits.reset()
	clear(c.head)
	c.arcs, c.vecs = c.arcs[:0], c.vecs[:0]
	numRegions := 0
	c.ReceiveCycle(t, func(_ int, p packet.Packet) {
		for rec := range packet.All(p.Payload) {
			switch rec.Tag {
			case packet.TagMeta:
				d := packet.NewDec(rec.Data)
				d.U32()
				numRegions = int(d.U16())
			case packet.TagKDSplits:
				c.splits.add(rec.Data)
			case packet.TagArcFlags:
				c.decode(rec.Data)
			}
		}
	})
	if numRegions == 0 || !c.splits.complete(numRegions) {
		return scheme.Result{}, fmt.Errorf("arcflag: index incomplete after full cycle")
	}
	kd, err := partition.KDTreeFromSplits(c.splits.vals[:numRegions-1])
	if err != nil {
		return scheme.Result{}, fmt.Errorf("arcflag: %w", err)
	}

	c.StartCPU()
	// Recovery can deliver arc chunks out of order; restore the canonical
	// order so the search breaks ties the same whatever the loss pattern.
	net := c.Net()
	net.SortAllArcs()
	rt := kd.RegionOf(q.TX, q.TY)
	// Prune: drop every received arc whose flag for the target's region is
	// clear. A lost flag vector counts as all bits set (Section 6.2).
	net.ForEach(func(u graph.NodeID) {
		arcs := net.Arcs(u)
		kept := arcs[:0]
		for _, a := range arcs {
			if fv, ok := c.flags(u, a.To); !ok || rt/8 >= len(fv) || fv[rt/8]&(1<<(rt%8)) != 0 {
				kept = append(kept, a)
			}
		}
		x, y, _ := net.Pos(u)
		net.AddNode(u, x, y, kept)
	})
	res := c.Dijkstra(net, q.S, q.T, nil)
	c.StopCPU()
	return c.Result(t, res.Dist, res.Path), nil
}

// decode stores one flag vector record. A later vector for the same arc
// replaces an earlier one.
func (c *Client) decode(data []byte) {
	d := packet.NewDec(data)
	u := int(d.U32())
	to := graph.NodeID(d.U32())
	if d.Err() {
		return
	}
	vec := data[len(data)-d.Remaining():]
	if u >= len(c.head) {
		c.head = append(c.head, make([]int32, max(u+1, 2*len(c.head))-len(c.head))...)
	}
	c.arcs = append(c.arcs, flagArc{to: to, off: int32(len(c.vecs)), n: int32(len(vec)), next: c.head[u]})
	c.head[u] = int32(len(c.arcs))
	c.vecs = append(c.vecs, vec...)
	c.Mem.Alloc(len(vec) + metrics.FlagEntryBytes)
}

// flags returns the flag vector of arc (u, to), false when it was not
// received.
func (c *Client) flags(u, to graph.NodeID) ([]byte, bool) {
	if int(u) >= len(c.head) {
		return nil, false
	}
	for i := c.head[u]; i != 0; i = c.arcs[i-1].next {
		if a := c.arcs[i-1]; a.to == to {
			return c.vecs[a.off : a.off+a.n], true
		}
	}
	return nil, false
}

type splitsCollect struct {
	vals [4096]float64
	got  [4096]bool
	n    int
}

func (s *splitsCollect) add(data []byte) {
	d := packet.NewDec(data)
	start := int(d.U16())
	cnt := int(d.U8())
	for i := 0; i < cnt; i++ {
		v := d.F32()
		if d.Err() {
			return
		}
		if k := start + i; k < len(s.vals) && !s.got[k] {
			s.vals[k] = v
			s.got[k] = true
			s.n++
		}
	}
}

func (s *splitsCollect) complete(regions int) bool { return s.n >= regions-1 }

// reset forgets the received splits; vals is only read where got is set.
func (s *splitsCollect) reset() {
	clear(s.got[:])
	s.n = 0
}
