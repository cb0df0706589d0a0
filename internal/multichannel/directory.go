// Package multichannel shards one broadcast cycle across K parallel
// channels on a shared global clock. The cycle's sections are distributed
// by region in contiguous kd order, every channel carries a small
// directory mapping logical packet ranges to (channel, slot), and a
// channel-hopping radio (Rx) serves the original
// single-cycle address space to an unchanged broadcast.Tuner — scheme
// clients run verbatim while access latency runs on the global clock, so
// waits shrink with the per-channel cycle length (~K times).
//
// With K == 1 the plan is the identity: channel 0 is the original cycle,
// no directory travels, and the radio reproduces the single-channel
// substrate bit for bit (same loss seed, same metrics).
package multichannel

import (
	"fmt"
	"sync"

	"repro/internal/airidx"
	"repro/internal/packet"
)

// MaxChannels bounds K: channel ids travel as small integers in the
// directory and a radio hops between a handful of frequencies, not
// hundreds.
const MaxChannels = 16

// maxDirCopies bounds the directory copies per channel (the copy slots
// travel in every directory packet's meta record).
const maxDirCopies = 4

// Entry places one contiguous logical packet range on one channel.
type Entry struct {
	LogicalStart int // first logical cycle position of the range
	N            int // packets in the range
	Channel      int
	Slot         int // channel-local slot of the range's first packet
}

// Directory is the sharding table every channel broadcasts: the complete
// mapping between the logical cycle and the K channel cycles. A radio that
// holds it (pre-cached or decoded from the air) can hop to exactly the
// channel carrying any logical position.
type Directory struct {
	K          int
	LogicalLen int
	ChanLens   []int   // per-channel cycle length in packets
	Entries    []Entry // sorted by LogicalStart, tiling [0, LogicalLen)
	// DirSlots holds, per channel, the channel-local slots where directory
	// copies start; empty for the K=1 identity directory (nothing travels).
	DirSlots [][]int
	// DirPackets is the packet count of one directory copy (0 for K=1).
	DirPackets int
	// Version is the broadcast-cycle version the directory describes
	// (zero for a static broadcast). A radio compares it against the
	// version stamped on received packets to detect that a cycle swap
	// invalidated its cached copy (Rx.Stale).
	Version uint32

	identity bool

	// entryOf maps every logical position to its Entries index: the O(1)
	// lookup table behind the per-hop Lookup/Extent calls. It builds lazily
	// exactly once per Directory. Warm radios all hold the plan's one
	// Directory, so a fleet shares a single table; a cold radio decodes its
	// own Directory from the air and pays one O(LogicalLen) fill — noise
	// next to the hundreds of packets its bootstrap scan already cost.
	tableOnce sync.Once
	entryOf   []int32
}

// Identity reports whether the directory is the K=1 identity mapping.
func (d *Directory) Identity() bool { return d.identity }

// buildTable materializes the position -> entry index table.
func (d *Directory) buildTable() {
	if d.identity {
		return
	}
	t := make([]int32, d.LogicalLen)
	for i, e := range d.Entries {
		for k := 0; k < e.N; k++ {
			t[e.LogicalStart+k] = int32(i)
		}
	}
	d.entryOf = t
}

// entryAt returns the entry covering logical position p (not identity).
func (d *Directory) entryAt(p int) *Entry {
	d.tableOnce.Do(d.buildTable)
	return &d.Entries[d.entryOf[p]]
}

// Lookup maps a logical cycle position p in [0, LogicalLen) to the channel
// and channel-local slot that carry it. It is a slice-indexed table lookup,
// not a search — radios call it once per received packet.
func (d *Directory) Lookup(p int) (channel, slot int) {
	if d.identity {
		return 0, p
	}
	e := d.entryAt(p)
	return e.Channel, e.Slot + (p - e.LogicalStart)
}

// Extent returns how many logical positions from p onward (p included) are
// carried contiguously on one channel: the largest span a radio can receive
// without retuning.
func (d *Directory) Extent(p int) int {
	if d.identity {
		return d.LogicalLen
	}
	e := d.entryAt(p)
	return e.LogicalStart + e.N - p
}

// StartPos returns the logical position of the content at channel-local
// slot `slot` on `channel`, or — when the slot falls in a directory copy or
// padding — the logical start of the next content range on that channel.
// It defines where a radio that tunes in "right now" logically is.
func (d *Directory) StartPos(channel, slot int) int {
	if d.identity {
		return slot
	}
	best, bestDelta := 0, d.ChanLens[channel]+1
	l := d.ChanLens[channel]
	for _, e := range d.Entries {
		if e.Channel != channel {
			continue
		}
		if slot >= e.Slot && slot < e.Slot+e.N {
			return e.LogicalStart + (slot - e.Slot)
		}
		delta := (e.Slot - slot + l) % l
		if delta < bestDelta {
			best, bestDelta = e.LogicalStart, delta
		}
	}
	return best
}

// identityDirectory maps a single channel onto itself.
func identityDirectory(logicalLen int) *Directory {
	return &Directory{
		K:          1,
		LogicalLen: logicalLen,
		ChanLens:   []int{logicalLen},
		Entries:    []Entry{{LogicalStart: 0, N: logicalLen, Channel: 0, Slot: 0}},
		identity:   true,
	}
}

// --- Wire format ---
//
// A directory copy is a run of KindDir packets. Every packet leads with a
// TagDirMeta record so any single intact packet identifies the copy shape,
// the receiving radio's channel, and where this channel's other copies sit
// (for patching lost packets from a later copy, like an air index):
//
//	dirmeta  = ver u8, k u8, nEntries u16, dirPackets u16, seq u16,
//	           logicalLen u32, channel u8, chanLen u32,
//	           nCopies u8, nCopies x slot u32
//	           [, cycleVersion u32]
//	dirchans = k x chanLen u32
//	direntry = first u16, count u8, count x (start u32, n u32, ch u8, slot u32)
//
// The broadcasting channel's own cycle length rides in every packet's meta
// so a cold radio that catches any one intact directory packet can compute
// when this channel's other copies come around and patch losses by slot
// instead of scanning.
//
// The trailing cycleVersion announces which broadcast version the directory
// maps (internal/update's versioned cycles). It is appended only when
// non-zero: a static broadcast encodes byte-identically to the pre-versioned
// format, which keeps the committed deterministic baselines unchanged.
//
// Directory packets are synthesized per channel — they are not part of the
// logical cycle and never reachable through Lookup.

const dirVersion = 1

// entryBytes is the wire size of one placement entry.
const entryBytes = 13

// EncodeDirectory renders one directory copy for the given channel. The
// copy length is invariant across channels (fixed-width fields), which
// Build relies on when laying out channel cycles.
func EncodeDirectory(d *Directory, channel int) []packet.Packet {
	metaLen := 18 + 4*len(d.DirSlots[channel])
	if d.Version != 0 {
		metaLen += 4
	}
	capacity := packet.PayloadSize - (3 + metaLen)

	// Chunk entries into records of up to entriesPerRec placements.
	entriesPerRec := (capacity - 3 - 3) / entryBytes // minus record + `first,count` framing
	if entriesPerRec < 1 {
		entriesPerRec = 1
	}
	type rec struct{ data []byte }
	var recs []rec
	for first := 0; first < len(d.Entries); first += entriesPerRec {
		var e packet.Enc
		hi := min(first+entriesPerRec, len(d.Entries))
		e.U16(uint16(first))
		e.U8(uint8(hi - first))
		for _, en := range d.Entries[first:hi] {
			e.U32(uint32(en.LogicalStart))
			e.U32(uint32(en.N))
			e.U8(uint8(en.Channel))
			e.U32(uint32(en.Slot))
		}
		recs = append(recs, rec{e.Bytes()})
	}
	var chans packet.Enc
	for _, l := range d.ChanLens {
		chans.U32(uint32(l))
	}

	// Group records into packets: chans first, then entry records.
	type group struct{ recs []packet.Record }
	var groups []group
	cur := group{recs: []packet.Record{{Tag: packet.TagDirChans, Data: chans.Bytes()}}}
	size := 3 + chans.Len()
	for _, r := range recs {
		need := 3 + len(r.data)
		if size+need > capacity {
			groups = append(groups, cur)
			cur, size = group{}, 0
		}
		cur.recs = append(cur.recs, packet.Record{Tag: packet.TagDirEntry, Data: r.data})
		size += need
	}
	groups = append(groups, cur)

	pkts := make([]packet.Packet, len(groups))
	for seq, g := range groups {
		var meta packet.Enc
		meta.U8(dirVersion)
		meta.U8(uint8(d.K))
		meta.U16(uint16(len(d.Entries)))
		meta.U16(uint16(len(groups)))
		meta.U16(uint16(seq))
		meta.U32(uint32(d.LogicalLen))
		meta.U8(uint8(channel))
		meta.U32(uint32(d.ChanLens[channel]))
		meta.U8(uint8(len(d.DirSlots[channel])))
		for _, s := range d.DirSlots[channel] {
			meta.U32(uint32(s))
		}
		if d.Version != 0 {
			meta.U32(d.Version)
		}
		payload := airidx.AppendRecord(nil, packet.TagDirMeta, meta.Bytes())
		for _, r := range g.recs {
			payload = airidx.AppendRecord(payload, r.Tag, r.Data)
		}
		full := make([]byte, packet.PayloadSize)
		copy(full, payload)
		pkts[seq] = packet.Packet{Kind: packet.KindDir, Version: d.Version, Payload: full}
	}
	return pkts
}

// DirMeta is a decoded TagDirMeta record.
type DirMeta struct {
	K          int
	NEntries   int
	Packets    int // packets per directory copy
	Seq        int
	LogicalLen int
	Channel    int    // channel this copy travels on
	ChanLen    int    // that channel's cycle length
	CopySlots  []int  // this channel's directory copy start slots
	Version    uint32 // broadcast-cycle version (0 = static / pre-versioned)
}

// DecodeDirMeta parses a TagDirMeta record.
func DecodeDirMeta(data []byte) (DirMeta, bool) {
	d := packet.NewDec(data)
	if d.U8() != dirVersion {
		return DirMeta{}, false
	}
	m := DirMeta{
		K:          int(d.U8()),
		NEntries:   int(d.U16()),
		Packets:    int(d.U16()),
		Seq:        int(d.U16()),
		LogicalLen: int(d.U32()),
		Channel:    int(d.U8()),
		ChanLen:    int(d.U32()),
	}
	n := int(d.U8())
	for i := 0; i < n; i++ {
		m.CopySlots = append(m.CopySlots, int(d.U32()))
	}
	if d.Remaining() >= 4 {
		m.Version = d.U32() // versioned cycle; absent on a static broadcast
	}
	if d.Err() || m.K < 1 || m.K > MaxChannels {
		return DirMeta{}, false
	}
	return m, true
}

// DirAccum reassembles a Directory from (possibly lossy) KindDir packets, a
// copy at a time — the client half of the wire format.
type DirAccum struct {
	Meta     DirMeta
	haveMeta bool
	chanLens []int
	entries  []Entry
	gotEntry []bool
	nEntries int
	gotSeq   []bool
}

// Process folds one packet; non-KindDir and lost packets are ignored.
func (a *DirAccum) Process(p packet.Packet, ok bool) {
	if !ok || p.Kind != packet.KindDir {
		return
	}
	var meta DirMeta
	found := false
	packet.ForEachRecord(p.Payload, func(tag uint8, data []byte) bool {
		if tag == packet.TagDirMeta {
			meta, found = DecodeDirMeta(data)
			return false
		}
		return true
	})
	if !found {
		return
	}
	if a.haveMeta && meta.Version < a.Meta.Version {
		return // a straggler from a superseded cycle version
	}
	if a.haveMeta && meta.Version > a.Meta.Version {
		// The cycle swapped mid-bootstrap: everything assembled so far maps
		// a version that just left the air. Start over on the new one.
		*a = DirAccum{}
	}
	if !a.haveMeta {
		a.Meta = meta
		a.haveMeta = true
		a.entries = make([]Entry, meta.NEntries)
		a.gotEntry = make([]bool, meta.NEntries)
		a.gotSeq = make([]bool, meta.Packets)
	}
	if meta.Seq < len(a.gotSeq) {
		a.gotSeq[meta.Seq] = true
	}
	packet.ForEachRecord(p.Payload, func(tag uint8, data []byte) bool {
		switch tag {
		case packet.TagDirChans:
			if a.chanLens == nil {
				d := packet.NewDec(data)
				lens := make([]int, a.Meta.K)
				for i := range lens {
					lens[i] = int(d.U32())
				}
				if !d.Err() {
					a.chanLens = lens
				}
			}
		case packet.TagDirEntry:
			d := packet.NewDec(data)
			first := int(d.U16())
			count := int(d.U8())
			for i := 0; i < count; i++ {
				e := Entry{
					LogicalStart: int(d.U32()),
					N:            int(d.U32()),
					Channel:      int(d.U8()),
					Slot:         int(d.U32()),
				}
				if d.Err() || first+i >= len(a.entries) {
					break
				}
				if !a.gotEntry[first+i] {
					a.gotEntry[first+i] = true
					a.entries[first+i] = e
					a.nEntries++
				}
			}
		}
		return true
	})
}

// MissingSeqs returns the copy-relative packet positions still needed.
func (a *DirAccum) MissingSeqs() []int {
	var out []int
	for s, got := range a.gotSeq {
		if !got {
			out = append(out, s)
		}
	}
	return out
}

// Complete reports whether the full table has been assembled.
func (a *DirAccum) Complete() bool {
	return a.haveMeta && a.chanLens != nil && a.nEntries == a.Meta.NEntries
}

// Directory materializes the assembled table. Call only when Complete.
func (a *DirAccum) Directory() (*Directory, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("multichannel: directory incomplete")
	}
	d := &Directory{
		K:          a.Meta.K,
		LogicalLen: a.Meta.LogicalLen,
		ChanLens:   a.chanLens,
		Entries:    a.entries,
		DirPackets: a.Meta.Packets,
		Version:    a.Meta.Version,
		DirSlots:   make([][]int, a.Meta.K),
	}
	d.DirSlots[a.Meta.Channel] = a.Meta.CopySlots
	return d, nil
}
