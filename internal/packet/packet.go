// Package packet models the broadcast channel's smallest information unit:
// the fixed-size packet (128 bytes in the paper's evaluation, Section 7).
//
// Every packet carries a small header — its kind and the offset (in packets)
// to the next index copy in the cycle, which the paper requires of every
// packet regardless of contents — followed by a payload of self-delimiting
// records. Records never span packets, so each packet decodes independently:
// this is what makes per-packet loss recoverable (Section 6.2) instead of
// corrupting whole streams.
package packet

import "fmt"

// Size is the fixed packet size in bytes (paper Section 7).
const Size = 128

// headerSize is kind (1 byte) + next-index offset (4 bytes).
const headerSize = 5

// PayloadSize is the per-packet record area.
const PayloadSize = Size - headerSize

// recordHeader is tag (1 byte) + length (2 bytes).
const recordHeader = 3

// MaxRecord is the largest record payload that fits in one packet.
const MaxRecord = PayloadSize - recordHeader

// Kind classifies a packet for accounting and for clients deciding whether
// a packet they woke up for is index or data.
type Kind uint8

// Packet kinds.
const (
	KindPad   Kind = iota // filler
	KindIndex             // global or local (per-region) air index
	KindData              // road-network adjacency data
	KindAux               // scheme-specific pre-computed information (flags, vectors, quadtrees, super-edge tables)
	KindDir               // multi-channel directory: logical-section -> (channel, slot) table
	KindDelta             // versioned-cycle patch list: arcs whose weight changed since the previous version
)

func (k Kind) String() string {
	switch k {
	case KindPad:
		return "pad"
	case KindIndex:
		return "index"
	case KindData:
		return "data"
	case KindAux:
		return "aux"
	case KindDir:
		return "dir"
	case KindDelta:
		return "delta"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is one broadcast unit.
type Packet struct {
	Kind Kind
	// NextIndex is the offset, in packets and relative to this packet's
	// position, of the next index packet in the cycle (wrapping around).
	// The paper mandates this pointer on every packet so a client tuning in
	// anywhere can find the index.
	NextIndex uint32
	// Version is the broadcast-cycle version the packet belongs to. A static
	// broadcast (the paper's model) never stamps it, so it stays zero;
	// a dynamic deployment bumps it on every cycle rebuild
	// (broadcast.Cycle.SetVersion), letting a client detect mid-query that
	// the air swapped underneath it. Versions are compared intact-packet to
	// intact-packet only: a lost packet carries no trustworthy header.
	//
	// Airtime model: Version is not charged against the 128-byte packet
	// budget (headerSize stays kind + next-index). A real dynamic
	// deployment would widen the header by four bytes — ~3% airtime — or
	// fold the version into the per-packet meta records the way the
	// directory wire format does; the simulation keeps the packet economy
	// of the paper's static model so that versioned and static runs measure
	// the same packet counts and the staleness overhead isolates the swap
	// protocol itself.
	Version uint32
	// Payload holds the framed records (PayloadSize bytes once sealed).
	Payload []byte
}

// Record is one framed unit inside a packet payload.
type Record struct {
	Tag  uint8
	Data []byte
}

// Record tags, shared across schemes. Tag 0 terminates a payload.
const (
	TagEnd           uint8 = iota // payload terminator / padding
	TagNode                       // adjacency record: one node and its outgoing arcs
	TagKDSplits                   // part of the kd-tree split sequence (EB/NR index component 1)
	TagEBCells                    // a w×w square of EB's min/max matrix (index component 2)
	TagRegionOffsets              // region -> start-packet table (EB index column / NR local index)
	TagNRRow                      // part of one row of an NR local next-region array A^m
	TagMeta                       // cycle metadata: node count, region count, cycle length
	TagArcFlags                   // per-arc partition bit vectors (ArcFlag)
	TagLandmarkVec                // per-node landmark distance vector (Landmark)
	TagLandmarkPos                // landmark node IDs (Landmark)
	TagHiTiEdge                   // HiTi super-edge batch (level, subgraph, border pairs)
	TagHiTiMeta                   // HiTi hierarchy shape
	TagSPQTree                    // part of one node's colored shortest-path quadtree (SPQ)
	TagSegmentSplit               // cross-border/local segment boundary within a region (EB/NR)
	TagDirMeta                    // multi-channel directory shape (internal/multichannel)
	TagDirChans                   // per-channel cycle lengths
	TagDirEntry                   // logical-range -> (channel, slot) placements
	TagDeltaMeta                  // versioned-cycle patch shape (version, predecessor, arc count)
	TagDeltaArcs                  // changed-arc batch: (from, to, new weight) triples
)

// Sink abstracts the destination of framed records: a Writer materializes
// packets, a Counter only sizes them. Encoders written against Sink (e.g.
// netdata.AppendNode) serve both a materializing pass and the count-only
// layout pass of a streamed cycle build with one code path, so the two can
// never disagree about packet boundaries.
type Sink interface {
	Add(tag uint8, data []byte)
}

// Writer frames records into packets. Records are placed whole; a record
// that does not fit in the current packet's remaining space starts a new
// packet. All packets produced by one Writer share a Kind.
type Writer struct {
	kind    Kind
	packets []Packet
	cur     []byte
}

// NewWriter returns a Writer producing packets of the given kind.
func NewWriter(kind Kind) *Writer {
	return &Writer{kind: kind}
}

var (
	_ Sink = (*Writer)(nil)
	_ Sink = (*Counter)(nil)
)

// Add appends one record. It panics if data exceeds MaxRecord — callers
// split large structures into parts at a higher level, because a record is
// the unit of loss: a record must never straddle two packets.
func (w *Writer) Add(tag uint8, data []byte) {
	if tag == TagEnd {
		panic("packet: record tag 0 is reserved for padding")
	}
	if len(data) > MaxRecord {
		panic(fmt.Sprintf("packet: record of %d bytes exceeds MaxRecord=%d", len(data), MaxRecord))
	}
	need := recordHeader + len(data)
	if len(w.cur)+need > PayloadSize {
		w.flush()
	}
	w.cur = append(w.cur, tag, byte(len(data)), byte(len(data)>>8))
	w.cur = append(w.cur, data...)
}

func (w *Writer) flush() {
	if len(w.cur) == 0 {
		return
	}
	p := Packet{Kind: w.kind, Payload: make([]byte, PayloadSize)}
	copy(p.Payload, w.cur)
	w.packets = append(w.packets, p)
	w.cur = w.cur[:0]
}

// Packets seals the writer and returns the framed packets. The Writer can
// keep accepting records afterwards; Packets may be called again.
func (w *Writer) Packets() []Packet {
	w.flush()
	out := make([]Packet, len(w.packets))
	copy(out, w.packets)
	return out
}

// Drain returns the packets completed so far and forgets them, leaving any
// partially filled packet accumulating. Records never span packets, so a
// drained prefix is final: a streaming encoder can emit it and release the
// memory while continuing to Add. Interleaving Drain with Add produces the
// same packet sequence, in total, as a single Packets call.
func (w *Writer) Drain() []Packet {
	out := w.packets
	w.packets = nil
	return out
}

// Completed reports how many sealed packets are waiting (what Drain would
// return), not counting the partially filled one.
func (w *Writer) Completed() int { return len(w.packets) }

// Counter computes how many packets a record stream frames into, without
// materializing them: the layout pass of a streamed cycle build. It applies
// exactly Writer's placement rule (whole records, new packet when a record
// does not fit).
type Counter struct {
	packets int
	cur     int
}

// Add implements Sink, counting the record instead of storing it. It
// enforces the same limits as Writer.Add.
func (c *Counter) Add(tag uint8, data []byte) {
	if tag == TagEnd {
		panic("packet: record tag 0 is reserved for padding")
	}
	if len(data) > MaxRecord {
		panic(fmt.Sprintf("packet: record of %d bytes exceeds MaxRecord=%d", len(data), MaxRecord))
	}
	need := recordHeader + len(data)
	if c.cur+need > PayloadSize {
		c.packets++
		c.cur = 0
	}
	c.cur += need
}

// Packets returns the number of packets the records framed into so far
// (sealing the partial one, like Writer.Packets).
func (c *Counter) Packets() int {
	if c.cur > 0 {
		return c.packets + 1
	}
	return c.packets
}

// AppendRecord frames one record onto b, append-style: the same framing
// Writer.Add applies, for encoders that lay out a payload by hand (index
// packers, directory and delta encoders). It is the only place the record
// envelope is written.
func AppendRecord(b []byte, tag uint8, data []byte) []byte {
	b = append(b, tag, byte(len(data)), byte(len(data)>>8))
	return append(b, data...)
}

// ForEachRecord decodes the records in a packet payload in place, calling
// fn with views into payload (no copies, no allocation). Decoding stops at
// the first TagEnd byte, at a malformed length, or when fn returns false, so
// a truncated or padded payload yields its valid prefix.
//
// The data slice aliases payload: callers that retain record bytes past the
// packet must copy them. Every decode loop in the client hot path runs
// through here, and TestForEachRecordZeroAlloc pins it at zero allocs/op.
//
//air:noalloc
func ForEachRecord(payload []byte, fn func(tag uint8, data []byte) bool) {
	for off := 0; off+recordHeader <= len(payload); {
		tag := payload[off]
		if tag == TagEnd {
			return
		}
		n := int(payload[off+1]) | int(payload[off+2])<<8
		off += recordHeader
		if off+n > len(payload) {
			return // malformed; treat the rest as padding
		}
		if !fn(tag, payload[off:off+n]) {
			return
		}
		off += n
	}
}

// All returns a range-over-func iterator over the records of a packet
// payload: `for rec := range packet.All(p.Payload)`. Like ForEachRecord,
// the yielded Record.Data views alias payload and the loop allocates
// nothing.
//
//air:noalloc
func All(payload []byte) func(yield func(Record) bool) {
	return func(yield func(Record) bool) {
		ForEachRecord(payload, func(tag uint8, data []byte) bool {
			return yield(Record{Tag: tag, Data: data})
		})
	}
}
