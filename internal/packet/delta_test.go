package packet

import (
	"encoding/binary"
	"math"
	"testing"
)

// The delta decoders are the round-trip oracle of EncodeDelta: nothing on
// the air decodes KindDelta, so they live with the tests.

// deltaMeta is a decoded TagDeltaMeta record.
type deltaMeta struct {
	Version     uint32 // cycle version this patch produces
	FromVersion uint32 // cycle version this patch applies to
	Arcs        int    // total changed arcs in the patch
	Packets     int    // packets per patch copy
	Seq         int    // this packet's position within the copy
}

// decodeDeltaMeta parses a TagDeltaMeta record.
func decodeDeltaMeta(data []byte) (deltaMeta, bool) {
	d := NewDec(data)
	m := deltaMeta{
		Version:     d.U32(),
		FromVersion: d.U32(),
		Arcs:        int(d.U32()),
		Packets:     int(d.U16()),
		Seq:         int(d.U16()),
	}
	if d.Err() || m.Packets < 1 || m.Seq >= m.Packets {
		return deltaMeta{}, false
	}
	return m, true
}

// forEachDeltaArc decodes a TagDeltaArcs record in place, calling fn for
// every changed arc until it returns false; a truncated record yields its
// valid prefix.
func forEachDeltaArc(data []byte, fn func(a DeltaArc) bool) {
	for off := 0; off+deltaArcBytes <= len(data); off += deltaArcBytes {
		a := DeltaArc{
			From:   binary.LittleEndian.Uint32(data[off:]),
			To:     binary.LittleEndian.Uint32(data[off+4:]),
			Weight: float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off+8:]))),
		}
		if !fn(a) {
			return
		}
	}
}

// deltaArcs decodes every DeltaArc of a delta packet run, verifying the
// per-packet meta self-description along the way.
func deltaArcs(t *testing.T, pkts []Packet, wantVer, wantFrom uint32) []DeltaArc {
	t.Helper()
	var out []DeltaArc
	for seq, p := range pkts {
		if p.Kind != KindDelta {
			t.Fatalf("packet %d kind %v, want delta", seq, p.Kind)
		}
		if p.Version != wantVer {
			t.Fatalf("packet %d header version %d, want %d", seq, p.Version, wantVer)
		}
		if len(p.Payload) != PayloadSize {
			t.Fatalf("packet %d payload %d bytes, want %d", seq, len(p.Payload), PayloadSize)
		}
		gotMeta := false
		ForEachRecord(p.Payload, func(tag uint8, data []byte) bool {
			switch tag {
			case TagDeltaMeta:
				m, ok := decodeDeltaMeta(data)
				if !ok {
					t.Fatalf("packet %d: malformed delta meta", seq)
				}
				if m.Version != wantVer || m.FromVersion != wantFrom {
					t.Fatalf("packet %d meta versions %d<-%d, want %d<-%d",
						seq, m.Version, m.FromVersion, wantVer, wantFrom)
				}
				if m.Packets != len(pkts) || m.Seq != seq {
					t.Fatalf("packet %d meta shape %d/%d, want %d/%d",
						seq, m.Seq, m.Packets, seq, len(pkts))
				}
				gotMeta = true
			case TagDeltaArcs:
				forEachDeltaArc(data, func(a DeltaArc) bool {
					out = append(out, a)
					return true
				})
			}
			return true
		})
		if !gotMeta {
			t.Fatalf("packet %d carries no meta record", seq)
		}
	}
	return out
}

func TestDeltaRoundTrip(t *testing.T) {
	mkArcs := func(n int) []DeltaArc {
		arcs := make([]DeltaArc, n)
		for i := range arcs {
			arcs[i] = DeltaArc{
				From:   uint32(i),
				To:     uint32(3*i + 1),
				Weight: float64(i) * 1.5,
			}
		}
		return arcs
	}
	cases := []struct {
		name      string
		ver, from uint32
		arcs      []DeltaArc
		wantPkts  int
	}{
		{"empty patch", 1, 0, nil, 1},
		{"single arc", 2, 1, mkArcs(1), 1},
		{"exactly one packet", 3, 2, mkArcs(DeltaArcsPerPacket), 1},
		{"one arc over", 4, 3, mkArcs(DeltaArcsPerPacket + 1), 2},
		{"several packets", 9, 7, mkArcs(3*DeltaArcsPerPacket + 5), 4},
		{"version wrap-scale", math.MaxUint32, math.MaxUint32 - 1, mkArcs(2), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkts := EncodeDelta(tc.ver, tc.from, tc.arcs)
			if len(pkts) != tc.wantPkts {
				t.Fatalf("%d packets, want %d", len(pkts), tc.wantPkts)
			}
			got := deltaArcs(t, pkts, tc.ver, tc.from)
			if len(got) != len(tc.arcs) {
				t.Fatalf("decoded %d arcs, want %d", len(got), len(tc.arcs))
			}
			for i, a := range got {
				want := tc.arcs[i]
				// Weights travel as float32, like every on-air weight.
				if a.From != want.From || a.To != want.To ||
					a.Weight != float64(float32(want.Weight)) {
					t.Fatalf("arc %d = %+v, want %+v", i, a, want)
				}
			}
		})
	}
}

func TestDecodeDeltaMetaRejectsMalformed(t *testing.T) {
	pkts := EncodeDelta(5, 4, []DeltaArc{{From: 1, To: 2, Weight: 3}})
	var meta []byte
	ForEachRecord(pkts[0].Payload, func(tag uint8, data []byte) bool {
		if tag == TagDeltaMeta {
			meta = data
		}
		return true
	})
	if meta == nil {
		t.Fatal("no meta record")
	}
	if _, ok := decodeDeltaMeta(meta[:len(meta)-1]); ok {
		t.Error("truncated meta decoded")
	}
	var e Enc
	e.U32(5)
	e.U32(4)
	e.U32(1)
	e.U16(0) // zero packets
	e.U16(0)
	if _, ok := decodeDeltaMeta(e.Bytes()); ok {
		t.Error("zero-packet meta decoded")
	}
	e = Enc{}
	e.U32(5)
	e.U32(4)
	e.U32(1)
	e.U16(2)
	e.U16(2) // seq == packets
	if _, ok := decodeDeltaMeta(e.Bytes()); ok {
		t.Error("out-of-range seq decoded")
	}
}

func TestForEachDeltaArcTruncatedPrefix(t *testing.T) {
	var e Enc
	for i := 0; i < 3; i++ {
		e.U32(uint32(i))
		e.U32(uint32(i + 1))
		e.F32(float64(i))
	}
	data := e.Bytes()[:2*deltaArcBytes+5] // third arc truncated
	n := 0
	forEachDeltaArc(data, func(DeltaArc) bool { n++; return true })
	if n != 2 {
		t.Fatalf("decoded %d arcs from truncated record, want 2", n)
	}
	n = 0
	forEachDeltaArc(data, func(DeltaArc) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop decoded %d arcs, want 1", n)
	}
}

func TestVersionFieldDefaultsZero(t *testing.T) {
	w := NewWriter(KindData)
	w.Add(TagNode, []byte{1})
	for _, p := range w.Packets() {
		if p.Version != 0 {
			t.Fatalf("static writer stamped version %d, want 0", p.Version)
		}
	}
}
