// Package netdata serializes road-network adjacency data into broadcast
// packets and decodes it back on the client. Every scheme's data segments
// (the "adjacency lists of all nodes", paper Section 3.2) share this format:
// self-contained per-node records, chunked so records never span packets
// and a node with a long adjacency list splits into continuation records.
package netdata

import (
	"encoding/binary"
	"math"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/spath"
)

// maxArcsPerRecord keeps a node record within packet.MaxRecord:
// header (id u32 + x f32 + y f32 + flags u8 + count u8) is 14 bytes, each
// arc (target u32 + weight f32) is 8.
const maxArcsPerRecord = (packet.MaxRecord - nodeRecHeader) / 8

// nodeRecHeader is the fixed prefix of a TagNode record: id u32 + x f32 +
// y f32 + flags u8 + count u8.
const nodeRecHeader = 14

// Node record flags.
const (
	flagBorder = 1 << 0
	flagPOI    = 1 << 1
)

// AppendNode writes node v of g as one or more TagNode records. border
// marks v as a region border node (clients need the distinction for the
// super-edge contraction of Section 6.1); poi sets the record's
// point-of-interest flag, a bit of the format no client in this tree
// reads. The sink is a packet.Writer when encoding for real and a
// packet.Counter during the layout pass of a streamed build.
func AppendNode(w packet.Sink, g *graph.Graph, v graph.NodeID, border, poi bool) {
	nd := g.Node(v)
	dst, wgt := g.Out(v)
	var flags uint8
	if border {
		flags |= flagBorder
	}
	if poi {
		flags |= flagPOI
	}
	for start := 0; ; start += maxArcsPerRecord {
		end := start + maxArcsPerRecord
		if end > len(dst) {
			end = len(dst)
		}
		var e packet.Enc
		e.U32(uint32(v))
		e.F32(nd.X)
		e.F32(nd.Y)
		e.U8(flags)
		e.U8(uint8(end - start))
		for i := start; i < end; i++ {
			e.U32(uint32(dst[i]))
			e.F32(wgt[i])
		}
		w.Add(packet.TagNode, e.Bytes())
		if end == len(dst) {
			return
		}
	}
}

// EncodeNodes packs the given nodes, in order, into data packets. isBorder
// and isPOI may be nil when the respective marking is irrelevant.
func EncodeNodes(g *graph.Graph, nodes []graph.NodeID, isBorder, isPOI []bool) []packet.Packet {
	w := packet.NewWriter(packet.KindData)
	for _, v := range nodes {
		AppendNode(w, g, v, isBorder != nil && isBorder[v], isPOI != nil && isPOI[v])
	}
	return w.Packets()
}

// CountNodes returns the exact number of data packets EncodeNodes would
// produce for the same arguments, without materializing any — the layout
// pass of an out-of-core cycle build. It shares AppendNode with the real
// encoder, so the count cannot drift from the encoding.
func CountNodes(g *graph.Graph, nodes []graph.NodeID, isBorder, isPOI []bool) int {
	var c packet.Counter
	for _, v := range nodes {
		AppendNode(&c, g, v, isBorder != nil && isBorder[v], isPOI != nil && isPOI[v])
	}
	return c.Packets()
}

// StreamNodes encodes the given nodes like EncodeNodes but hands completed
// packets to emit in batches of at most batch packets, so the full segment
// never lives in memory at once: this is what keeps a continent-scale
// build's peak RSS flat. The concatenation of all emitted batches is
// exactly EncodeNodes' output. emit must not retain the batch slice (its
// packets may, their payloads are freshly allocated).
func StreamNodes(g *graph.Graph, nodes []graph.NodeID, isBorder, isPOI []bool, batch int, emit func([]packet.Packet) error) error {
	if batch <= 0 {
		batch = 1024
	}
	w := packet.NewWriter(packet.KindData)
	for _, v := range nodes {
		AppendNode(w, g, v, isBorder != nil && isBorder[v], isPOI != nil && isPOI[v])
		if w.Completed() >= batch {
			if err := emit(w.Drain()); err != nil {
				return err
			}
		}
	}
	if pkts := w.Packets(); len(pkts) > 0 {
		if err := emit(pkts); err != nil {
			return err
		}
	}
	return nil
}

// Collector accumulates decoded node records into a client-side partial
// network with duplicate suppression at packet granularity: re-processing
// a packet at the same cycle position (e.g. when a region is received again
// during packet-loss recovery) is a no-op, so arc lists never double up.
// Retained bytes are charged to the memory tracker using the shared client
// memory model.
//
// All bookkeeping is slice-indexed (no maps) and the streaming node decode
// allocates nothing beyond adjacency growth, so a reused Collector (Reset)
// makes reception alloc-free in the steady state.
type Collector struct {
	Net *spath.SubNetwork
	Mem *metrics.Mem

	border flagSet // by node ID
	seen   flagSet // by cycle position
}

// NewCollector returns a collector over an ID space of n nodes, charging
// memory to mem (which may be nil for untracked use).
func NewCollector(n int, mem *metrics.Mem) *Collector {
	c := &Collector{Net: spath.NewSubNetwork(n)}
	c.Reset(n, mem)
	return c
}

// Reset empties the collector for a fresh query over an ID space of n
// nodes, retaining every backing array. Clients that live across queries
// (one device answering a stream of queries) reset one collector instead of
// allocating a new partial network per query.
//
//air:noalloc
func (c *Collector) Reset(n int, mem *metrics.Mem) {
	c.Net.Reset(n)
	c.Mem = mem
	c.border.reset()
	c.seen.reset()
}

// Processed reports whether the packet at the given cycle position has
// already been folded in.
func (c *Collector) Processed(cyclePos int) bool { return c.seen.has(cyclePos) }

// IsBorder reports whether v arrived flagged as a region border node.
func (c *Collector) IsBorder(v graph.NodeID) bool { return c.border.has(int(v)) }

// flagSet is a set of small non-negative integers that remembers which it
// holds, so a reset costs what one query set, not the table's size.
type flagSet struct {
	on  []bool // grown on demand
	set []int32
}

func (f *flagSet) has(i int) bool { return i < len(f.on) && f.on[i] }

func (f *flagSet) add(i int) {
	if i >= len(f.on) {
		grown := make([]bool, max(i+1, 2*len(f.on)))
		copy(grown, f.on)
		f.on = grown
	}
	if !f.on[i] {
		f.on[i] = true
		f.set = append(f.set, int32(i))
	}
}

func (f *flagSet) remove(i int) {
	if i < len(f.on) {
		f.on[i] = false
	}
}

func (f *flagSet) reset() {
	for _, i := range f.set {
		f.on[i] = false
	}
	f.set = f.set[:0]
}

// Process decodes the TagNode records of a data packet received at the
// given cycle position and merges them into the partial network. Non-node
// records are ignored. Duplicate positions are skipped. Each arc is decoded
// straight into the slot SubNetwork.ReserveArcs hands out: one copy per
// arc, and one ID-space growth per record, to its largest target.
//
//air:noalloc
func (c *Collector) Process(cyclePos int, p packet.Packet) {
	if c.Processed(cyclePos) {
		return
	}
	c.seen.add(cyclePos)
	for rec := range packet.All(p.Payload) {
		data := rec.Data
		// Streaming decode: reject short records up front, then read
		// fields straight out of the payload — no decoder state.
		if rec.Tag != packet.TagNode || len(data) < nodeRecHeader {
			continue
		}
		id := graph.NodeID(binary.LittleEndian.Uint32(data))
		x := float64(math.Float32frombits(binary.LittleEndian.Uint32(data[4:])))
		y := float64(math.Float32frombits(binary.LittleEndian.Uint32(data[8:])))
		flags := data[12]
		cnt := int(data[13])
		if len(data) < nodeRecHeader+8*cnt {
			continue
		}
		arcs, added := c.Net.ReserveArcs(id, x, y, cnt)
		top := id
		for i := range arcs {
			b := data[nodeRecHeader+8*i:]
			to := graph.NodeID(binary.LittleEndian.Uint32(b))
			arcs[i] = graph.Arc{To: to, Weight: float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4:])))}
			top = max(top, to)
		}
		c.Net.Grow(top)
		if flags&flagBorder != 0 {
			c.border.add(int(id))
		}
		if c.Mem != nil {
			if added {
				c.Mem.Alloc(metrics.NodeRecBytes)
			}
			c.Mem.Alloc(metrics.ArcRecBytes * cnt)
		}
	}
}

// Release discharges the collector's retained bytes from the tracker
// (memory-bound processing frees region data after contraction).
func (c *Collector) Release(v graph.NodeID) {
	if !c.Net.Has(v) {
		return
	}
	if c.Mem != nil {
		c.Mem.Free(metrics.NodeRecBytes + metrics.ArcRecBytes*len(c.Net.Arcs(v)))
	}
	c.Net.Remove(v)
	c.border.remove(int(v))
}
