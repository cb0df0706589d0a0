package broadcast

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/packet"
)

// The cycle codec persists an assembled broadcast cycle so a restarted
// server can put yesterday's build back on the air without re-running
// precompute or assembly. The format is mmap-friendly: packet records are
// fixed-size and 8-aligned, so DecodeCycle can serve packets whose payload
// bytes alias the file's page-cache mapping — a continent-scale cycle
// costs no heap beyond the packet headers.
//
// It is also streamable: CycleWriter emits packet records as sections are
// appended, never holding more than one section in memory, which is what
// keeps an out-of-core build's peak RSS flat. The price of streaming is
// that next-index pointers must be computable before the cycle is
// complete, so the writer is seeded with the final layout (total packet
// count and index-copy start positions) — exactly what the two-pass
// EB/NR/DJ assembly knows up front — and verifies at Close that the
// declared layout is the one that was appended.
//
// Layout (little endian):
//
//	header   24 bytes: magic "AIRC", u32 format version (=1),
//	         u32 cycle version, u32 total packets, u32 index-start count,
//	         u32 reserved
//	index    index-start count × u32 (the declared KindIndex section starts)
//	         (padded to 8 bytes)
//	packets  total × 136-byte records:
//	         kind u8, payload length u8, pad u16, next-index u32,
//	         version u32, payload bytes (≤ 123), zero pad to 136
//	sections section count × (kind u8, pad u8, label length u16,
//	         region i32, start u32, n u32, label bytes, pad to 4)
//	footer   8 bytes: u32 section count, "CEND"
const (
	cycleMagic     = "AIRC"
	cycleEndMagic  = "CEND"
	cycleVersion1  = 1
	cycleHeaderLen = 24
	packetRecLen   = 136
	packetRecFixed = 12 // bytes before the payload in one record
	cycleFooterLen = 8
)

// CycleWriter streams a cycle to w section by section. Appends mirror
// Assembler.Append; Close finalizes. The caller declares the layout up
// front — total packets and the start positions of every KindIndex section
// — so next-index pointers are computed on the fly, bit-identical to
// Assembler.Finish on the same appends.
type CycleWriter struct {
	w       *countingWriter
	total   int
	starts  []int // declared index starts, ascending
	ptr     pointers
	version uint32

	pos      int // packets written
	sections []Section
	gotIdx   []int // starts of appended KindIndex sections
	closed   bool
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
}

// NewCycleWriter starts a streamed cycle of exactly total packets whose
// KindIndex sections begin at indexStarts (ascending; nil for an index-less
// cycle, whose next-index pointers stay zero). version stamps every packet,
// like Cycle.SetVersion does on the heap path.
func NewCycleWriter(w io.Writer, total int, indexStarts []int, version uint32) (*CycleWriter, error) {
	if total < 0 {
		return nil, fmt.Errorf("broadcast: negative cycle length %d", total)
	}
	for i := 1; i < len(indexStarts); i++ {
		if indexStarts[i] <= indexStarts[i-1] {
			return nil, fmt.Errorf("broadcast: index starts not ascending: %v", indexStarts)
		}
	}
	if len(indexStarts) > 0 && (indexStarts[0] < 0 || indexStarts[len(indexStarts)-1] >= total) {
		return nil, fmt.Errorf("broadcast: index starts %v outside cycle of %d", indexStarts, total)
	}
	cw := &CycleWriter{
		w:       &countingWriter{w: w},
		total:   total,
		starts:  append([]int(nil), indexStarts...),
		version: version,
	}
	cw.ptr = pointers{starts: cw.starts, n: total}
	var hdr [cycleHeaderLen]byte
	copy(hdr[0:4], cycleMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], cycleVersion1)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(total))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(indexStarts)))
	cw.w.write(hdr[:])
	var b [4]byte
	for _, s := range indexStarts {
		binary.LittleEndian.PutUint32(b[:], uint32(s))
		cw.w.write(b[:])
	}
	if len(indexStarts)%2 == 1 {
		cw.w.write(make([]byte, 4)) // realign to 8
	}
	return cw, cw.w.err
}

// Append streams pkts as one complete section and returns its start
// position. Equivalent to BeginSection followed by one Emit.
func (cw *CycleWriter) Append(kind packet.Kind, region int, label string, pkts []packet.Packet) (int, error) {
	start, err := cw.BeginSection(kind, region, label)
	if err != nil {
		return 0, err
	}
	return start, cw.Emit(pkts)
}

// BeginSection opens a new section at the current position and returns it.
// Packets then arrive through Emit, in as many batches as the producer
// likes — this is the streamed-build entry point, where a region's data is
// encoded and written chunk by chunk instead of materialized whole. The
// section ends at the next BeginSection or Close.
func (cw *CycleWriter) BeginSection(kind packet.Kind, region int, label string) (int, error) {
	if cw.closed {
		return 0, fmt.Errorf("broadcast: append to closed cycle writer")
	}
	if kind == packet.KindIndex {
		cw.gotIdx = append(cw.gotIdx, cw.pos)
	}
	cw.sections = append(cw.sections, Section{Kind: kind, Region: region, Label: label, Start: cw.pos})
	return cw.pos, nil
}

// Emit streams pkts into the currently open section.
func (cw *CycleWriter) Emit(pkts []packet.Packet) error {
	if cw.closed {
		return fmt.Errorf("broadcast: emit to closed cycle writer")
	}
	if len(cw.sections) == 0 {
		return fmt.Errorf("broadcast: emit before BeginSection")
	}
	if cw.pos+len(pkts) > cw.total {
		return fmt.Errorf("broadcast: cycle overflows declared %d packets", cw.total)
	}
	var rec [packetRecLen]byte
	for _, p := range pkts {
		if len(p.Payload) > packet.PayloadSize {
			return fmt.Errorf("broadcast: packet payload %d exceeds %d", len(p.Payload), packet.PayloadSize)
		}
		for i := range rec {
			rec[i] = 0
		}
		rec[0] = byte(p.Kind)
		rec[1] = byte(len(p.Payload))
		binary.LittleEndian.PutUint32(rec[4:8], cw.ptr.at(cw.pos)) // as Assembler.Finish derives it
		binary.LittleEndian.PutUint32(rec[8:12], cw.version)
		copy(rec[packetRecFixed:], p.Payload)
		cw.w.write(rec[:])
		cw.pos++
	}
	cw.sections[len(cw.sections)-1].N += len(pkts)
	return cw.w.err
}

// Len returns the packets appended so far.
func (cw *CycleWriter) Len() int { return cw.pos }

// Close writes the section table and footer, and verifies the appends
// matched the declared layout: exactly total packets, and the KindIndex
// sections beginning exactly at the declared starts.
func (cw *CycleWriter) Close() error {
	if cw.closed {
		return fmt.Errorf("broadcast: cycle writer closed twice")
	}
	cw.closed = true
	if cw.pos != cw.total {
		return fmt.Errorf("broadcast: streamed cycle has %d packets, declared %d", cw.pos, cw.total)
	}
	if len(cw.gotIdx) != len(cw.starts) {
		return fmt.Errorf("broadcast: %d index sections appended, %d declared", len(cw.gotIdx), len(cw.starts))
	}
	for i := range cw.starts {
		if cw.gotIdx[i] != cw.starts[i] {
			return fmt.Errorf("broadcast: index section %d starts at %d, declared %d", i, cw.gotIdx[i], cw.starts[i])
		}
	}
	var b [12]byte
	for _, s := range cw.sections {
		if len(s.Label) > 0xFFFF {
			return fmt.Errorf("broadcast: section label %q too long", s.Label[:32])
		}
		b[0] = byte(s.Kind)
		b[1] = 0
		binary.LittleEndian.PutUint16(b[2:4], uint16(len(s.Label)))
		binary.LittleEndian.PutUint32(b[4:8], uint32(int32(s.Region)))
		binary.LittleEndian.PutUint32(b[8:12], uint32(s.Start))
		cw.w.write(b[:12])
		binary.LittleEndian.PutUint32(b[0:4], uint32(s.N))
		cw.w.write(b[:4])
		cw.w.write([]byte(s.Label))
		if pad := (4 - len(s.Label)%4) % 4; pad > 0 {
			cw.w.write(make([]byte, pad))
		}
	}
	var foot [cycleFooterLen]byte
	binary.LittleEndian.PutUint32(foot[0:4], uint32(len(cw.sections)))
	copy(foot[4:8], cycleEndMagic)
	cw.w.write(foot[:])
	return cw.w.err
}

// EncodeCycle writes an in-memory cycle in the streamed format: the
// round-trip DecodeCycle(EncodeCycle(c)) reproduces c exactly.
func EncodeCycle(w io.Writer, c *Cycle) error {
	cw, err := NewCycleWriter(w, c.Len(), indexStarts(c.Sections), c.Version)
	if err != nil {
		return err
	}
	for _, s := range c.Sections {
		if _, err := cw.Append(s.Kind, s.Region, s.Label, c.Packets[s.Start:s.Start+s.N]); err != nil {
			return err
		}
	}
	return cw.Close()
}

// DecodeCycle opens a cycle from data in the streamed format. Packet
// payloads alias data — the caller keeps data alive and unmodified for the
// cycle's lifetime (an mmap'd diskcache payload does both), and in
// exchange a multi-gigabyte cycle decodes without copying its payload
// bytes. It accepts only what a CycleWriter can write: truncated buffers,
// sections that do not tile the cycle in start order, declared index starts
// other than the KindIndex sections' own, and packet headers whose version
// or next-index pointer differ from what the writer derives are rejected.
func DecodeCycle(data []byte) (*Cycle, error) {
	if len(data) < cycleHeaderLen+cycleFooterLen {
		return nil, fmt.Errorf("broadcast: cycle buffer shorter than header")
	}
	if string(data[0:4]) != cycleMagic {
		return nil, fmt.Errorf("broadcast: bad cycle magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != cycleVersion1 {
		return nil, fmt.Errorf("broadcast: unsupported cycle format %d", v)
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	total := int(binary.LittleEndian.Uint32(data[12:16]))
	nIdx := int(binary.LittleEndian.Uint32(data[16:20]))
	idxBytes := int64(nIdx) * 4
	if nIdx%2 == 1 {
		idxBytes += 4
	}
	packetsAt := int64(cycleHeaderLen) + idxBytes
	sectionsAt := packetsAt + int64(total)*packetRecLen
	if sectionsAt+cycleFooterLen > int64(len(data)) {
		return nil, fmt.Errorf("broadcast: cycle buffer truncated")
	}
	foot := data[len(data)-cycleFooterLen:]
	if string(foot[4:8]) != cycleEndMagic {
		return nil, fmt.Errorf("broadcast: bad cycle footer %q", foot[4:8])
	}
	nSections := int(binary.LittleEndian.Uint32(foot[0:4]))

	c := &Cycle{Version: version}
	at := sectionsAt
	limit := int64(len(data)) - cycleFooterLen
	pos := 0
	for si := 0; si < nSections; si++ {
		if at+16 > limit {
			return nil, fmt.Errorf("broadcast: section table truncated at %d", si)
		}
		rec := data[at:]
		labelLen := int(binary.LittleEndian.Uint16(rec[2:4]))
		s := Section{
			Kind:   packet.Kind(rec[0]),
			Region: int(int32(binary.LittleEndian.Uint32(rec[4:8]))),
			Start:  int(binary.LittleEndian.Uint32(rec[8:12])),
			N:      int(binary.LittleEndian.Uint32(rec[12:16])),
		}
		at += 16
		if at+int64(labelLen) > limit {
			return nil, fmt.Errorf("broadcast: section %d label truncated", si)
		}
		s.Label = string(data[at : at+int64(labelLen)])
		at += int64(labelLen)
		at += int64((4 - labelLen%4) % 4)
		if s.Start != pos || s.N < 0 || s.Start+s.N > total {
			return nil, fmt.Errorf("broadcast: section %d spans [%d,%d) in cycle of %d (expected start %d)",
				si, s.Start, s.Start+s.N, total, pos)
		}
		pos += s.N
		c.Sections = append(c.Sections, s)
	}
	if pos != total {
		return nil, fmt.Errorf("broadcast: sections cover %d of %d packets", pos, total)
	}

	starts := indexStarts(c.Sections)
	if len(starts) != nIdx {
		return nil, fmt.Errorf("broadcast: %d index sections, %d declared", len(starts), nIdx)
	}
	for k, st := range starts {
		declared := int(binary.LittleEndian.Uint32(data[cycleHeaderLen+4*k:]))
		if declared != st || st >= total || k > 0 && st <= starts[k-1] {
			return nil, fmt.Errorf("broadcast: index section %d starts at %d, declared %d in a cycle of %d", k, st, declared, total)
		}
	}

	ptr := pointers{starts: starts, n: total}
	c.Packets = make([]packet.Packet, total)
	for i := 0; i < total; i++ {
		rec := data[packetsAt+int64(i)*packetRecLen:]
		payLen := int(rec[1])
		if payLen > packet.PayloadSize {
			return nil, fmt.Errorf("broadcast: packet %d payload length %d", i, payLen)
		}
		p := packet.Packet{
			Kind:      packet.Kind(rec[0]),
			NextIndex: binary.LittleEndian.Uint32(rec[4:8]),
			Version:   binary.LittleEndian.Uint32(rec[8:12]),
			Payload:   rec[packetRecFixed : packetRecFixed+payLen : packetRecFixed+payLen],
		}
		if p.Version != version || p.NextIndex != ptr.at(i) {
			return nil, fmt.Errorf("broadcast: packet %d header (version %d, next index %d) contradicts the cycle layout", i, p.Version, p.NextIndex)
		}
		c.Packets[i] = p
	}
	return c, nil
}
