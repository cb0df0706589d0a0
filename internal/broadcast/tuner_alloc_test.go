package broadcast

import (
	"testing"

	"repro/internal/packet"
)

// allocCycle builds a small data cycle with framed records.
func allocCycle(tb testing.TB) *Cycle {
	tb.Helper()
	w := packet.NewWriter(packet.KindData)
	for i := 0; i < 400; i++ {
		var e packet.Enc
		e.U32(uint32(i))
		e.F32(float64(i))
		e.F32(float64(2 * i))
		e.U8(0)
		e.U8(0)
		w.Add(packet.TagNode, e.Bytes())
	}
	asm := NewAssembler()
	asm.Append(packet.KindData, 0, "data", w.Packets())
	return asm.Finish()
}

// TestTunerReceiveZeroAlloc pins the client receive loop — Listen over an
// offline channel plus zero-copy record iteration — at zero allocations
// per packet, lossy air included.
func TestTunerReceiveZeroAlloc(t *testing.T) {
	for _, loss := range []float64{0, 0.1} {
		ch, err := NewChannel(allocCycle(t), loss, 7)
		if err != nil {
			t.Fatal(err)
		}
		tuner := NewTuner(ch, 0)
		sum := 0
		if n := testing.AllocsPerRun(500, func() {
			p, ok := tuner.Listen()
			if !ok {
				return
			}
			packet.ForEachRecord(p.Payload, func(tag uint8, data []byte) bool {
				sum += len(data)
				return true
			})
		}); n != 0 {
			t.Errorf("loss %v: tuner receive loop allocates %v per packet, want 0", loss, n)
		}
		_ = sum
	}
}

// TestListenSpanZeroAlloc pins the run reception — ListenSpan over the
// channel's Span views, the callback included — at zero allocations,
// lossy air included.
func TestListenSpanZeroAlloc(t *testing.T) {
	for _, loss := range []float64{0, 0.1} {
		ch, err := NewChannel(allocCycle(t), loss, 7)
		if err != nil {
			t.Fatal(err)
		}
		tuner := NewTuner(ch, 0)
		sum, span := 0, 1
		if n := testing.AllocsPerRun(200, func() {
			tuner.ListenSpan(span, func(_ int, p packet.Packet, ok bool) {
				if ok {
					sum += len(p.Payload)
				}
			})
			span = 1 + (span*7)%150
		}); n != 0 {
			t.Errorf("loss %v: ListenSpan allocates %v per span, want 0", loss, n)
		}
		pos := 0
		if n := testing.AllocsPerRun(200, func() {
			ch.Span(pos, 64)
			pos += 13
		}); n != 0 {
			t.Errorf("loss %v: Channel.Span allocates %v per view, want 0", loss, n)
		}
		_ = sum
	}
}

// TestFetchRecoverZeroAlloc pins a reused plan at zero allocations on a
// lossy channel: Want plus Fetch over runs of a region's length and past
// one Span view, and the same with the Recover of what they lost.
func TestFetchRecoverZeroAlloc(t *testing.T) {
	ch, err := NewChannel(allocCycle(t), 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tuner := NewTuner(ch, 3)
	sum := 0
	fn := func(id, cyclePos int, p packet.Packet) { sum += id + cyclePos + len(p.Payload) }
	var plan Plan // AllocsPerRun's warm-up runs grow it
	runs := [][3]int{{0, 40, 90}, {1, 7, 12}, {2, 150, 30}}
	if n := testing.AllocsPerRun(100, func() {
		for _, r := range runs {
			plan.Want(r[0], r[1], r[2])
		}
		tuner.Fetch(&plan, fn)
		plan.Reset()
	}); n != 0 {
		t.Errorf("Fetch allocates %v per plan, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, r := range runs {
			plan.Want(r[0], r[1], r[2])
		}
		tuner.Fetch(&plan, fn)
		tuner.Recover(&plan, fn)
	}); n != 0 {
		t.Errorf("Fetch+Recover allocates %v per plan, want 0", n)
	}
	_ = sum
}

// BenchmarkTunerReceive measures the raw per-packet receive cost on a lossy
// offline channel, packet by packet (listen: one Listen plus record
// iteration), as one run (span: ListenSpan over the cycle) and as a
// reception plan (fetch: Fetch of one region-sized run plus the Recover of
// its losses, per op); `-benchmem` shows 0 B/op for all three.
func BenchmarkTunerReceive(b *testing.B) {
	ch, err := NewChannel(allocCycle(b), 0.05, 7)
	if err != nil {
		b.Fatal(err)
	}
	sum := 0
	records := func(tag uint8, data []byte) bool {
		sum += len(data)
		return true
	}
	b.Run("listen", func(b *testing.B) {
		tuner := NewTuner(ch, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, ok := tuner.Listen()
			if !ok {
				continue
			}
			packet.ForEachRecord(p.Payload, records)
		}
	})
	b.Run("span", func(b *testing.B) {
		tuner := NewTuner(ch, 0)
		b.ReportAllocs()
		tuner.ListenSpan(b.N, func(_ int, p packet.Packet, ok bool) {
			if ok {
				packet.ForEachRecord(p.Payload, records)
			}
		})
	})
	b.Run("fetch", func(b *testing.B) {
		tuner := NewTuner(ch, 0)
		var plan Plan
		fn := func(_, _ int, p packet.Packet) { packet.ForEachRecord(p.Payload, records) }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.Want(0, (i*97)%ch.Len(), 40)
			tuner.Fetch(&plan, fn)
			tuner.Recover(&plan, fn)
		}
	})
	_ = sum
}
