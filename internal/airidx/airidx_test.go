package airidx

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func TestPackIndexMetaInEveryPacket(t *testing.T) {
	recs := []Rec{}
	for i := 0; i < 60; i++ {
		recs = append(recs, Rec{packet.TagKDSplits, make([]byte, 50)})
	}
	pkts := PackIndex(recs, 1234, 16, GlobalRegion)
	if len(pkts) < 2 {
		t.Fatalf("expected multiple packets, got %d", len(pkts))
	}
	for seq, p := range pkts {
		if p.Kind != packet.KindIndex {
			t.Fatalf("packet %d kind %v", seq, p.Kind)
		}
		first, ok := firstRecord(p.Payload)
		if !ok || first.Tag != packet.TagMeta {
			t.Fatalf("packet %d does not start with meta", seq)
		}
		m, ok := DecodeMeta(first.Data)
		if !ok {
			t.Fatalf("packet %d meta undecodable", seq)
		}
		if m.NumNodes != 1234 || m.NumRegions != 16 || m.Packets != len(pkts) || m.Seq != seq || m.Region != -1 {
			t.Fatalf("packet %d meta %+v", seq, m)
		}
	}
}

func TestPackIndexLocalRegion(t *testing.T) {
	pkts := PackIndex(nil, 10, 4, 3)
	first, _ := firstRecord(pkts[0].Payload)
	m, ok := DecodeMeta(first.Data)
	if !ok || m.Region != 3 {
		t.Fatalf("meta %+v", m)
	}
}

func TestSplitsRoundTripAnyOrder(t *testing.T) {
	splits := make([]float64, 31)
	for i := range splits {
		splits[i] = float64(i) * 1.5
	}
	recs := KDSplitRecords(splits)
	acc := NewSplitsAccum(32)
	// Feed in reverse order with a duplicate.
	for i := len(recs) - 1; i >= 0; i-- {
		acc.Add(recs[i].Data)
	}
	acc.Add(recs[0].Data)
	if !acc.Complete() {
		t.Fatal("accumulator incomplete")
	}
	for i, v := range splits {
		if acc.Vals[i] != float64(float32(v)) {
			t.Fatalf("split %d = %v, want %v", i, acc.Vals[i], float64(float32(v)))
		}
	}
}

func TestOffsetsRoundTripBothLayouts(t *testing.T) {
	offs := make([]RegionOffset, 20)
	for i := range offs {
		offs[i] = RegionOffset{IdxStart: i * 100, DataStart: i*100 + 7, NCross: i, NLocal: 2 * i}
	}
	for _, nr := range []bool{false, true} {
		recs := OffsetRecords(offs, nr)
		acc := NewOffsetsAccum(20)
		for _, r := range recs {
			acc.Add(r.Data)
		}
		if !acc.Complete() {
			t.Fatalf("nr=%v incomplete", nr)
		}
		for i, o := range acc.Offs {
			if o.DataStart != offs[i].DataStart || o.NCross != offs[i].NCross || o.NLocal != offs[i].NLocal {
				t.Fatalf("nr=%v offset %d = %+v", nr, i, o)
			}
			if nr && o.IdxStart != offs[i].IdxStart {
				t.Fatalf("nr layout lost IdxStart: %+v", o)
			}
			if !nr && o.IdxStart != 0 {
				t.Fatalf("eb layout should not carry IdxStart: %+v", o)
			}
		}
	}
}

func TestEBCellsRoundTrip(t *testing.T) {
	n := 10
	minD := make([][]float64, n)
	maxD := make([][]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range minD {
		minD[i] = make([]float64, n)
		maxD[i] = make([]float64, n)
		for j := range minD[i] {
			minD[i][j] = rng.Float64() * 100
			maxD[i][j] = minD[i][j] + rng.Float64()*100
		}
	}
	for _, w := range []int{1, 3, 4} {
		recs := EBCellRecords(minD, maxD, w)
		acc := NewCellsAccum(n)
		for _, r := range recs {
			acc.Add(r.Data)
		}
		if !acc.Complete() {
			t.Fatalf("w=%d incomplete", w)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if acc.MinAt(i, j) != RoundF32(minD[i][j], false) || acc.MinAt(i, j) > minD[i][j] {
					t.Fatalf("w=%d min[%d][%d] = %v, want %v rounded down", w, i, j, acc.MinAt(i, j), minD[i][j])
				}
				if acc.MaxAt(i, j) != RoundF32(maxD[i][j], true) || acc.MaxAt(i, j) < maxD[i][j] {
					t.Fatalf("w=%d max[%d][%d] = %v, want %v rounded up", w, i, j, acc.MaxAt(i, j), maxD[i][j])
				}
			}
		}
	}
}

func TestSquarePackingLossResilience(t *testing.T) {
	// The point of w×w squares: losing one record must wipe out fewer
	// distinct rows+columns than a row-major run of the same cell count.
	n := 12
	minD := make([][]float64, n)
	maxD := make([][]float64, n)
	for i := range minD {
		minD[i] = make([]float64, n)
		maxD[i] = make([]float64, n)
	}
	rowsCols := func(recs []Rec) int {
		// max distinct (row, col) touched by any single record
		worst := 0
		for _, r := range recs {
			d := packet.NewDec(r.Data)
			i0 := int(d.U16())
			j0 := int(d.U16())
			h := int(d.U8())
			w := int(d.U8())
			_ = i0
			_ = j0
			if h+w > worst {
				worst = h + w
			}
		}
		return worst
	}
	sq := rowsCols(EBCellRecords(minD, maxD, 3))
	rm := rowsCols(EBCellRecords(minD, maxD, 1))
	// Square: 3+3=6 rows+cols per record of 9 cells. Row-major runs of 9
	// cells touch 1+9=10. Normalize per cell: 6/9 < 10/9.
	if sq >= 3+n {
		t.Fatalf("square packing touches %d rows+cols", sq)
	}
	if rm != 1+1 {
		t.Fatalf("w=1 packing should touch 2, got %d", rm)
	}
}

func TestClampF32(t *testing.T) {
	if ClampF32(math.Inf(1)) != math.MaxFloat32 {
		t.Error("inf not clamped")
	}
	if ClampF32(1.5) != 1.5 {
		t.Error("finite value modified")
	}
}

// TestRoundF32Directed: a bound lands on the float32 at or beyond it on
// its side and at most one float32 step away; a float32 value and the
// +Inf clamp come through unchanged.
func TestRoundF32Directed(t *testing.T) {
	for _, v := range []float64{0.1, 1.0 / 3, 2788.4544361314624, 1e7 + 0.5} {
		down, up := RoundF32(v, false), RoundF32(v, true)
		if down > v || up < v || down == up {
			t.Errorf("%v: down %v up %v", v, down, up)
		}
		if float32(down) != math.Nextafter32(float32(up), 0) {
			t.Errorf("%v: %v and %v are not adjacent float32s", v, down, up)
		}
	}
	for _, v := range []float64{1.5, 0, math.MaxFloat32} {
		if RoundF32(v, false) != v || RoundF32(v, true) != v {
			t.Errorf("float32-exact %v moved", v)
		}
	}
	if RoundF32(math.Inf(1), false) != math.MaxFloat32 || RoundF32(math.Inf(1), true) != math.MaxFloat32 {
		t.Error("+Inf not clamped to MaxFloat32")
	}
}

func TestNRRowsRoundTrip(t *testing.T) {
	n := 130 // forces row chunking at 100 cells per record
	next := make([][]uint8, n)
	for i := range next {
		next[i] = make([]uint8, n)
		for j := range next[i] {
			next[i][j] = uint8((i + j) % 250)
		}
	}
	recs := NRRowRecords(next)
	acc := NewNRRowsAccum(n)
	for _, r := range recs {
		acc.Add(r.Data)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if acc.Cell(i, j) != int(next[i][j]) {
				t.Fatalf("cell (%d,%d) = %d, want %d", i, j, acc.Cell(i, j), next[i][j])
			}
		}
	}
}

func TestNRRowsLostCellsAreMinusOne(t *testing.T) {
	acc := NewNRRowsAccum(8)
	if acc.Cell(3, 4) != -1 {
		t.Fatal("unknown cell should be -1")
	}
}

// firstRecord returns the first record of a packet payload, and whether
// the payload holds any record at all.
func firstRecord(payload []byte) (packet.Record, bool) {
	for r := range packet.All(payload) {
		return r, true
	}
	return packet.Record{}, false
}
