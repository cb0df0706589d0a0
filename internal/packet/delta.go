package packet

import "fmt"

// Delta wire format.
//
// A versioned broadcast rebuilds its cycle when the underlying network's
// arc weights change (internal/update). The patch from one version to the
// next can travel as a run of KindDelta packets trailing the new cycle
// (broadcast.WithTrailer). No client decodes them — clients caught by a
// swap re-enter (update.Query) — so the manager appends none; the encoder
// stays as the measured cost of the patch a client would need. Every packet
// leads with a TagDeltaMeta record, so any single intact packet identifies
// the patch shape — the same per-packet self-description rule the air index
// (airidx) and the channel directory (multichannel) follow:
//
//	deltameta = version u32, fromVersion u32, arcs u32, packets u16, seq u16
//	deltaarcs = repeated (from u32, to u32, weight f32)
//
// Records never span packets, so each delta packet decodes independently.

// DeltaArc is one changed arc: the directed arc From->To now has weight
// Weight. It is the on-air mirror of graph.WeightUpdate.
type DeltaArc struct {
	From, To uint32
	Weight   float64
}

// deltaArcBytes is the wire size of one DeltaArc (from u32 + to u32 + f32).
const deltaArcBytes = 12

// deltaMetaBytes is the wire size of a TagDeltaMeta record payload.
const deltaMetaBytes = 16

// DeltaArcsPerPacket is how many changed arcs one KindDelta packet carries:
// the payload minus the framed meta record, in whole arc triples.
const DeltaArcsPerPacket = (PayloadSize - (recordHeader + deltaMetaBytes) - recordHeader) / deltaArcBytes

// maxDeltaArcs is the largest patch one delta copy can carry: the packet
// count travels as a u16 in every meta record.
const maxDeltaArcs = DeltaArcsPerPacket * 0xFFFF

// EncodeDelta renders the patch from fromVersion to version as KindDelta
// packets, every one stamped with the new version and self-described by a
// leading TagDeltaMeta record. An empty patch (a rebuild that changed no
// arc, or a pure version bump) still produces one packet: the meta alone
// announces the transition. Like Writer.Add, it panics on input the wire
// format cannot carry — more than maxDeltaArcs arcs.
func EncodeDelta(version, fromVersion uint32, arcs []DeltaArc) []Packet {
	if len(arcs) > maxDeltaArcs {
		panic(fmt.Sprintf("packet: delta of %d arcs exceeds %d", len(arcs), maxDeltaArcs))
	}
	nPkts := (len(arcs) + DeltaArcsPerPacket - 1) / DeltaArcsPerPacket
	if nPkts == 0 {
		nPkts = 1
	}
	pkts := make([]Packet, nPkts)
	for seq := range pkts {
		var meta Enc
		meta.U32(version)
		meta.U32(fromVersion)
		meta.U32(uint32(len(arcs)))
		meta.U16(uint16(nPkts))
		meta.U16(uint16(seq))

		payload := make([]byte, 0, PayloadSize)
		payload = AppendRecord(payload, TagDeltaMeta, meta.Bytes())
		lo := seq * DeltaArcsPerPacket
		hi := min(lo+DeltaArcsPerPacket, len(arcs))
		if hi > lo {
			var e Enc
			for _, a := range arcs[lo:hi] {
				e.U32(a.From)
				e.U32(a.To)
				e.F32(a.Weight)
			}
			payload = AppendRecord(payload, TagDeltaArcs, e.Bytes())
		}
		full := make([]byte, PayloadSize)
		copy(full, payload)
		pkts[seq] = Packet{Kind: KindDelta, Version: version, Payload: full}
	}
	return pkts
}
