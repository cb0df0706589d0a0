package broadcast

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/packet"
)

// variedCycle assembles a cycle with index/data/aux sections whose payloads
// carry distinct pseudo-random bytes, so byte-level round-trip bugs show.
func variedCycle(t testing.TB, seed int64, sections ...int) *Cycle {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	asm := NewAssembler()
	for i, n := range sections {
		kind := packet.KindData
		switch i % 3 {
		case 0:
			kind = packet.KindIndex
		case 2:
			kind = packet.KindAux
		}
		pkts := make([]packet.Packet, n)
		for j := range pkts {
			payload := make([]byte, packet.PayloadSize)
			rng.Read(payload)
			pkts[j] = packet.Packet{Kind: kind, Payload: payload}
		}
		asm.Append(kind, i, "sec", pkts)
	}
	c := asm.Finish()
	c.SetVersion(7)
	return c
}

func equalCycles(t *testing.T, want, got *Cycle) {
	t.Helper()
	if got.Version != want.Version {
		t.Fatalf("version %d, want %d", got.Version, want.Version)
	}
	if got.Len() != want.Len() {
		t.Fatalf("len %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Packets {
		w, g := want.Packets[i], got.Packets[i]
		if g.Kind != w.Kind || g.NextIndex != w.NextIndex || g.Version != w.Version {
			t.Fatalf("packet %d header = %v/%d/%d, want %v/%d/%d",
				i, g.Kind, g.NextIndex, g.Version, w.Kind, w.NextIndex, w.Version)
		}
		if !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("packet %d payload differs", i)
		}
	}
	if len(got.Sections) != len(want.Sections) {
		t.Fatalf("%d sections, want %d", len(got.Sections), len(want.Sections))
	}
	for i := range want.Sections {
		if got.Sections[i] != want.Sections[i] {
			t.Fatalf("section %d = %+v, want %+v", i, got.Sections[i], want.Sections[i])
		}
	}
}

// TestCycleCodecRoundTrip: EncodeCycle → DecodeCycle reproduces the cycle
// exactly — headers, next-index pointers, payload bytes, sections, version.
func TestCycleCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sections []int
	}{
		{"index-data-aux", []int{3, 7, 2}},
		{"two-copies", []int{2, 9, 3, 2, 9, 3}},
		{"single-data", []int{5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := variedCycle(t, 42, tc.sections...)
			var buf bytes.Buffer
			if err := EncodeCycle(&buf, c); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeCycle(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			equalCycles(t, c, got)
		})
	}
}

// TestCycleWriterMatchesAssembler: streaming the same appends through a
// CycleWriter seeded with the final layout yields a cycle bit-identical to
// the in-memory Assembler path — including the wrap-around next-index
// pointers Finish computes with full knowledge of the cycle.
func TestCycleWriterMatchesAssembler(t *testing.T) {
	sections := []int{4, 11, 3, 4, 11, 3, 2}
	want := variedCycle(t, 99, sections...)

	// Layout pass: totals and index starts are known before any packet is
	// emitted (this is what the two-pass assembly computes).
	var total int
	var starts []int
	for i, n := range sections {
		if i%3 == 0 {
			starts = append(starts, total)
		}
		total += n
	}

	var buf bytes.Buffer
	cw, err := NewCycleWriter(&buf, total, starts, want.Version)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range want.Sections {
		start, err := cw.Append(s.Kind, s.Region, s.Label, want.Packets[s.Start:s.Start+s.N])
		if err != nil {
			t.Fatal(err)
		}
		if start != s.Start {
			t.Fatalf("streamed section started at %d, assembler at %d", start, s.Start)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCycle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	equalCycles(t, want, got)
}

// TestCycleWriterLayoutValidation: the writer refuses layouts that
// contradict the appends, instead of silently persisting wrong pointers.
func TestCycleWriterLayoutValidation(t *testing.T) {
	pkt := func() []packet.Packet {
		return []packet.Packet{{Kind: packet.KindData, Payload: make([]byte, packet.PayloadSize)}}
	}
	if _, err := NewCycleWriter(&bytes.Buffer{}, 4, []int{2, 2}, 0); err == nil {
		t.Error("non-ascending index starts accepted")
	}
	if _, err := NewCycleWriter(&bytes.Buffer{}, 4, []int{5}, 0); err == nil {
		t.Error("out-of-range index start accepted")
	}

	cw, err := NewCycleWriter(&bytes.Buffer{}, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Append(packet.KindData, 0, "a", pkt()); err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Append(packet.KindData, 0, "b", pkt()); err == nil {
		t.Error("overflow append accepted")
	}

	// Declared two packets, appended one.
	cw, _ = NewCycleWriter(&bytes.Buffer{}, 2, nil, 0)
	cw.Append(packet.KindData, 0, "a", pkt())
	if err := cw.Close(); err == nil {
		t.Error("short cycle accepted at Close")
	}
	if _, err := cw.Append(packet.KindData, 0, "late", pkt()); err == nil {
		t.Error("append after Close accepted")
	}

	// Declared an index section at 0, appended data there.
	cw, _ = NewCycleWriter(&bytes.Buffer{}, 1, []int{0}, 0)
	cw.Append(packet.KindData, 0, "a", pkt())
	if err := cw.Close(); err == nil {
		t.Error("missing index section accepted at Close")
	}

	// Index section appended at a position other than declared.
	cw, _ = NewCycleWriter(&bytes.Buffer{}, 2, []int{1}, 0)
	cw.Append(packet.KindIndex, 0, "idx", pkt())
	cw.Append(packet.KindData, 0, "d", pkt())
	if err := cw.Close(); err == nil {
		t.Error("misplaced index section accepted at Close")
	}
}

// TestDecodeCycleRejectsCorruption: damaged buffers error instead of
// producing a cycle that aliases garbage.
func TestDecodeCycleRejectsCorruption(t *testing.T) {
	c := variedCycle(t, 7, 2, 5, 2)
	var buf bytes.Buffer
	if err := EncodeCycle(&buf, c); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	damage := func(name string, mutate func([]byte)) {
		data := make([]byte, len(base))
		copy(data, base)
		mutate(data)
		if _, err := DecodeCycle(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	damage("bad magic", func(d []byte) { d[0] = 'X' })
	damage("bad format version", func(d []byte) { d[4] = 99 })
	damage("bad footer magic", func(d []byte) { d[len(d)-1] = 'X' })
	damage("oversized payload length", func(d []byte) {
		d[cycleHeaderLen+8+1] = packet.PayloadSize + 1 // first record's payLen (one index start → 8 bytes padding)
	})
	damage("inflated packet count", func(d []byte) { d[12] = 0xFF; d[13] = 0xFF })
	first := cycleHeaderLen + 8 // first packet record
	damage("packet version off the header's", func(d []byte) { d[first+8] ^= 1 })
	damage("next-index pointer off the layout", func(d []byte) { d[first+4] ^= 1 })
	damage("declared index start off the section's", func(d []byte) { d[cycleHeaderLen] = 1 })
	if _, err := DecodeCycle(base[:len(base)/2]); err == nil {
		t.Error("truncated buffer accepted")
	}
	if _, err := DecodeCycle(base[:8]); err == nil {
		t.Error("sub-header buffer accepted")
	}
}

// FuzzDecodeCycle feeds DecodeCycle bytes it did not write: it never
// panics, and a cycle it accepts re-encodes to bytes that decode to an
// equal cycle — the decoder accepts only what the writer can produce.
func FuzzDecodeCycle(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeCycle(&buf, variedCycle(f, 3, 2, 3, 1, 2, 3)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:cycleHeaderLen+cycleFooterLen])
	for _, field := range []int{8, 12, 16, len(valid) - cycleFooterLen} { // version, total, index starts, sections
		flipped := append([]byte(nil), valid...)
		flipped[field] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCycle(data)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := EncodeCycle(&again, c); err != nil {
			t.Fatalf("re-encoding an accepted cycle: %v", err)
		}
		c2, err := DecodeCycle(again.Bytes())
		if err != nil {
			t.Fatalf("re-decoding an accepted cycle: %v", err)
		}
		equalCycles(t, c, c2)
	})
}

// TestDecodeCycleAliasesBuffer documents the zero-copy contract: decoded
// payloads alias the input buffer rather than copying it.
func TestDecodeCycleAliasesBuffer(t *testing.T) {
	c := variedCycle(t, 5, 1, 3)
	var buf bytes.Buffer
	if err := EncodeCycle(&buf, c); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	got, err := DecodeCycle(data)
	if err != nil {
		t.Fatal(err)
	}
	p := got.Packets[0].Payload
	if len(p) == 0 {
		t.Fatal("empty payload")
	}
	before := p[0]
	// Flip the corresponding byte in the backing buffer; the decoded
	// payload must observe it.
	for i := range data {
		if &data[i] == &p[0] {
			data[i] ^= 0xFF
			break
		}
	}
	if p[0] == before {
		t.Fatal("payload does not alias the input buffer")
	}
}
