// Package airidx implements the shared air-index packet machinery: index
// copies packed with a per-packet meta record (so any single intact packet
// identifies the copy's length and its own position), plus the record
// encoders and client-side accumulators for kd splits, region directories,
// EB's min/max distance matrix and NR's next-region rows.
//
// Index record layout:
//
//	meta     = numNodes u32, numRegions u16, indexPackets u16, seq u16, region u16
//	kdsplits = start u16, count u8, count x f32            (component 1, paper 4.1)
//	ebcells  = i0 u16, j0 u16, h u8, w u8, h*w x (min f32, max f32)
//	offsets  = start u16, count u8, entryKind u8, entries  (region directory)
//	nrrow    = row u16, col0 u16, count u8, count x u8     (A^m next-region cells)
//
// The EB matrix travels as h x w squares (w=3) because, among all rectangles
// covering the same number of cells, a square intersects the fewest rows
// and columns - the paper's Section 6.2 loss-resilience argument.
package airidx

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/packet"
)

const (
	MetaRecordBytes = 3 + 12 // framed TagMeta record
	// GlobalRegion marks a global (EB) index in the meta's Region field.
	GlobalRegion = 0xFFFF

	OffsetsEntryEB = 0 // DataStart u32, NCross u16, NLocal u16
	OffsetsEntryNR = 1 // IdxStart u32, DataStart u32, NCross u16, NLocal u16
)

// Rec is an unframed record awaiting packing.
type Rec struct {
	Tag  uint8
	Data []byte
}

// PackIndex frames recs into KindIndex Packets, prepending a meta record to
// every packet. Region is the NR Region the index precedes, or GlobalRegion.
func PackIndex(recs []Rec, numNodes, numRegions int, region uint16) []packet.Packet {
	capacity := packet.PayloadSize - MetaRecordBytes
	var groups [][]Rec
	var cur []Rec
	size := 0
	for _, r := range recs {
		need := 3 + len(r.Data)
		if need > capacity {
			panic(fmt.Sprintf("airidx: record of %d bytes exceeds packet capacity %d", len(r.Data), capacity))
		}
		if size+need > capacity {
			groups = append(groups, cur)
			cur, size = nil, 0
		}
		cur = append(cur, r)
		size += need
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	if len(groups) == 0 {
		groups = [][]Rec{nil} // an index is never empty: the meta alone is information
	}
	pkts := make([]packet.Packet, len(groups))
	for seq, g := range groups {
		payload := make([]byte, 0, packet.PayloadSize)
		var meta packet.Enc
		meta.U32(uint32(numNodes))
		meta.U16(uint16(numRegions))
		meta.U16(uint16(len(groups)))
		meta.U16(uint16(seq))
		meta.U16(region)
		payload = AppendRecord(payload, packet.TagMeta, meta.Bytes())
		for _, r := range g {
			payload = AppendRecord(payload, r.Tag, r.Data)
		}
		full := make([]byte, packet.PayloadSize)
		copy(full, payload)
		pkts[seq] = packet.Packet{Kind: packet.KindIndex, Payload: full}
	}
	return pkts
}

// AppendRecord frames one record onto b (packet.AppendRecord re-exported
// for the index-layer callers that grew around this name).
func AppendRecord(b []byte, tag uint8, data []byte) []byte {
	return packet.AppendRecord(b, tag, data)
}

// Meta is a decoded TagMeta record.
type Meta struct {
	NumNodes   int
	NumRegions int
	Packets    int
	Seq        int
	Region     int // -1 for EB's global index
}

// DecodeMeta parses a TagMeta record.
func DecodeMeta(data []byte) (Meta, bool) {
	d := packet.NewDec(data)
	m := Meta{
		NumNodes:   int(d.U32()),
		NumRegions: int(d.U16()),
		Packets:    int(d.U16()),
		Seq:        int(d.U16()),
	}
	reg := d.U16()
	if d.Err() {
		return Meta{}, false
	}
	if reg == GlobalRegion {
		m.Region = -1
	} else {
		m.Region = int(reg)
	}
	return m, true
}

// KDSplitRecords chunks the breadth-first split sequence.
func KDSplitRecords(splits []float64) []Rec {
	const perRec = 25
	var out []Rec
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
		out = append(out, Rec{packet.TagKDSplits, e.Bytes()})
	}
	return out
}

// SplitsAccum reassembles a split sequence from chunk records, tolerant of
// duplicates and arbitrary arrival order.
type SplitsAccum struct {
	Vals []float64
	Got  []bool
	n    int
}

func NewSplitsAccum(regions int) *SplitsAccum {
	n := regions - 1
	return &SplitsAccum{Vals: make([]float64, n), Got: make([]bool, n)}
}

// ResetSplitsAccum empties a for reuse when it is already sized for
// `regions`, and allocates a fresh accumulator otherwise. Clients that
// answer a stream of queries against the same cycle reset their
// accumulators instead of reallocating per index copy.
func ResetSplitsAccum(a *SplitsAccum, regions int) *SplitsAccum {
	if a == nil || len(a.Vals) != regions-1 {
		return NewSplitsAccum(regions)
	}
	clear(a.Got)
	a.n = 0
	return a
}

// Add folds one TagKDSplits record in. The decode is hand-rolled over the
// fixed-width layout — this runs once per index packet on the client hot
// path, where the sticky-error decoder's bookkeeping is measurable.
func (a *SplitsAccum) Add(data []byte) {
	if len(data) < 3 {
		return
	}
	start := int(binary.LittleEndian.Uint16(data))
	cnt := int(data[2])
	if m := (len(data) - 3) / 4; cnt > m {
		cnt = m
	}
	for i := 0; i < cnt; i++ {
		if k := start + i; k < len(a.Vals) && !a.Got[k] {
			bits := binary.LittleEndian.Uint32(data[3+4*i:])
			a.Vals[k] = float64(math.Float32frombits(bits))
			a.Got[k] = true
			a.n++
		}
	}
}

func (a *SplitsAccum) Complete() bool { return a.n == len(a.Vals) }

// RegionOffset is one Region's directory entry.
type RegionOffset struct {
	IdxStart  int // NR only: cycle position of the local index A^r
	DataStart int // cycle position of the Region's first Data packet
	NCross    int // Packets in the cross-border segment
	NLocal    int // Packets in the local segment
}

// OffsetRecords chunks the Region directory. nr selects the NR entry layout
// (with per-Region local-index positions).
func OffsetRecords(offs []RegionOffset, nr bool) []Rec {
	entryBytes, kind := 8, byte(OffsetsEntryEB)
	if nr {
		entryBytes, kind = 12, byte(OffsetsEntryNR)
	}
	perRec := (packet.MaxRecord - MetaRecordBytes - 4) / entryBytes
	var out []Rec
	for start := 0; start < len(offs); start += perRec {
		end := start + perRec
		if end > len(offs) {
			end = len(offs)
		}
		var e packet.Enc
		e.U16(uint16(start))
		e.U8(uint8(end - start))
		e.U8(kind)
		for _, o := range offs[start:end] {
			if nr {
				e.U32(uint32(o.IdxStart))
			}
			e.U32(uint32(o.DataStart))
			e.U16(uint16(o.NCross))
			e.U16(uint16(o.NLocal))
		}
		out = append(out, Rec{packet.TagRegionOffsets, e.Bytes()})
	}
	return out
}

type OffsetsAccum struct {
	Offs []RegionOffset
	Got  []bool
	n    int
}

func NewOffsetsAccum(regions int) *OffsetsAccum {
	return &OffsetsAccum{Offs: make([]RegionOffset, regions), Got: make([]bool, regions)}
}

// ResetOffsetsAccum empties a for reuse when already sized for `regions`,
// allocating a fresh accumulator otherwise.
func ResetOffsetsAccum(a *OffsetsAccum, regions int) *OffsetsAccum {
	if a == nil || len(a.Offs) != regions {
		return NewOffsetsAccum(regions)
	}
	clear(a.Got)
	a.n = 0
	return a
}

// Add folds one TagRegionOffsets record in (hand-rolled decode, like
// SplitsAccum.Add).
func (a *OffsetsAccum) Add(data []byte) {
	if len(data) < 4 {
		return
	}
	start := int(binary.LittleEndian.Uint16(data))
	cnt := int(data[2])
	kind := data[3]
	entry := 8
	if kind == OffsetsEntryNR {
		entry = 12
	}
	if m := (len(data) - 4) / entry; cnt > m {
		cnt = m
	}
	for i := 0; i < cnt; i++ {
		b := data[4+entry*i:]
		var o RegionOffset
		if kind == OffsetsEntryNR {
			o.IdxStart = int(binary.LittleEndian.Uint32(b))
			b = b[4:]
		}
		o.DataStart = int(binary.LittleEndian.Uint32(b))
		o.NCross = int(binary.LittleEndian.Uint16(b[4:]))
		o.NLocal = int(binary.LittleEndian.Uint16(b[6:]))
		if k := start + i; k < len(a.Offs) && !a.Got[k] {
			a.Offs[k] = o
			a.Got[k] = true
			a.n++
		}
	}
}

func (a *OffsetsAccum) Complete() bool { return a.n == len(a.Offs) }

// EBCellRecords packs the min/max matrix into w×w squares (edge blocks may
// be smaller), each min rounded down and each max rounded up to float32.
func EBCellRecords(minD, maxD [][]float64, w int) []Rec {
	n := len(minD)
	var out []Rec
	for i0 := 0; i0 < n; i0 += w {
		h := min(w, n-i0)
		for j0 := 0; j0 < n; j0 += w {
			wd := min(w, n-j0)
			var e packet.Enc
			e.U16(uint16(i0))
			e.U16(uint16(j0))
			e.U8(uint8(h))
			e.U8(uint8(wd))
			for di := 0; di < h; di++ {
				for dj := 0; dj < wd; dj++ {
					e.F32(RoundF32(minD[i0+di][j0+dj], false))
					e.F32(RoundF32(maxD[i0+di][j0+dj], true))
				}
			}
			out = append(out, Rec{packet.TagEBCells, e.Bytes()})
		}
	}
	return out
}

// RoundF32 narrows a bound to float32 after ClampF32, rounding up or down
// rather than to nearest: a min stored above its value, or a max below it,
// lets a client prune a region the shortest path runs through.
func RoundF32(v float64, up bool) float64 {
	v = ClampF32(v)
	f := float32(v)
	switch {
	case up && float64(f) < v:
		f = math.Nextafter32(f, math.MaxFloat32)
	case !up && float64(f) > v:
		f = math.Nextafter32(f, -math.MaxFloat32)
	}
	return float64(f)
}

// ClampF32 maps +Inf (unreachable Region pairs; impossible on strongly
// connected networks but defensive) to MaxFloat32.
func ClampF32(v float64) float64 {
	if math.IsInf(v, 1) || v > math.MaxFloat32 {
		return math.MaxFloat32
	}
	return v
}

type CellsAccum struct {
	n          int
	minD, maxD []float64
	Got        []bool
	count      int
}

func NewCellsAccum(regions int) *CellsAccum {
	return &CellsAccum{
		n:    regions,
		minD: make([]float64, regions*regions),
		maxD: make([]float64, regions*regions),
		Got:  make([]bool, regions*regions),
	}
}

// ResetCellsAccum empties a for reuse when already sized for `regions`,
// allocating a fresh accumulator otherwise.
func ResetCellsAccum(a *CellsAccum, regions int) *CellsAccum {
	if a == nil || a.n != regions {
		return NewCellsAccum(regions)
	}
	clear(a.Got)
	a.count = 0
	return a
}

// Add folds one TagEBCells record in (hand-rolled decode, like
// SplitsAccum.Add).
func (a *CellsAccum) Add(data []byte) {
	if len(data) < 6 {
		return
	}
	i0 := int(binary.LittleEndian.Uint16(data))
	j0 := int(binary.LittleEndian.Uint16(data[2:]))
	h := int(data[4])
	wd := int(data[5])
	cells := (len(data) - 6) / 8
	for di := 0; di < h; di++ {
		for dj := 0; dj < wd; dj++ {
			c := di*wd + dj
			if c >= cells {
				return
			}
			i, j := i0+di, j0+dj
			if i >= a.n || j >= a.n {
				continue
			}
			k := i*a.n + j
			if !a.Got[k] {
				b := data[6+8*c:]
				a.minD[k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
				a.maxD[k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4:])))
				a.Got[k] = true
				a.count++
			}
		}
	}
}

func (a *CellsAccum) Complete() bool { return a.count == a.n*a.n }

func (a *CellsAccum) MinAt(i, j int) float64 { return a.minD[i*a.n+j] }
func (a *CellsAccum) MaxAt(i, j int) float64 { return a.maxD[i*a.n+j] }

// NRRowRecords chunks one NR local index array A^m (n×n next-Region cells,
// one byte per Cell; the NR builder enforces <= 256 regions).
func NRRowRecords(next [][]uint8) []Rec {
	n := len(next)
	const perRec = 100
	var out []Rec
	for i := 0; i < n; i++ {
		for j0 := 0; j0 < n; j0 += perRec {
			end := j0 + perRec
			if end > n {
				end = n
			}
			var e packet.Enc
			e.U16(uint16(i))
			e.U16(uint16(j0))
			e.U8(uint8(end - j0))
			e.B = append(e.B, next[i][j0:end]...)
			out = append(out, Rec{packet.TagNRRow, e.Bytes()})
		}
	}
	return out
}

type NRRowsAccum struct {
	n    int
	next []int16 // -1 unknown
}

func NewNRRowsAccum(regions int) *NRRowsAccum {
	a := &NRRowsAccum{n: regions, next: make([]int16, regions*regions)}
	a.Reset()
	return a
}

// Reset forgets every cell (all become "lost"), keeping the backing array:
// the NR client reuses one accumulator across the local-index copies it
// receives during a pointer chase instead of allocating one per copy.
func (a *NRRowsAccum) Reset() {
	for i := range a.next {
		a.next[i] = -1
	}
}

// ResetNRRowsAccum empties a for reuse when already sized for `regions`,
// allocating a fresh accumulator otherwise.
func ResetNRRowsAccum(a *NRRowsAccum, regions int) *NRRowsAccum {
	if a == nil || a.n != regions {
		return NewNRRowsAccum(regions)
	}
	a.Reset()
	return a
}

// Add folds one TagNRRow record in (hand-rolled decode: this is the
// hottest accumulator — one call per row record of every local index copy
// an NR client receives).
func (a *NRRowsAccum) Add(data []byte) {
	if len(data) < 5 {
		return
	}
	i := int(binary.LittleEndian.Uint16(data))
	j0 := int(binary.LittleEndian.Uint16(data[2:]))
	cnt := int(data[4])
	if m := len(data) - 5; cnt > m {
		cnt = m
	}
	if i >= a.n {
		return
	}
	row := a.next[i*a.n : (i+1)*a.n]
	for k := 0; k < cnt; k++ {
		if j := j0 + k; j < a.n {
			row[j] = int16(data[5+k])
		}
	}
}

// Cell returns A^m[i][j], or -1 if the record carrying it was lost.
func (a *NRRowsAccum) Cell(i, j int) int { return int(a.next[i*a.n+j]) }
