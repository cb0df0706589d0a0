package broadcast

import (
	"testing"

	"repro/internal/packet"
)

func cycleWith(t *testing.T, sections ...int) *Cycle {
	t.Helper()
	asm := NewAssembler()
	for i, n := range sections {
		kind := packet.KindData
		if i%2 == 0 {
			kind = packet.KindIndex
		}
		pkts := make([]packet.Packet, n)
		for j := range pkts {
			pkts[j] = packet.Packet{Kind: kind, Payload: make([]byte, packet.PayloadSize)}
		}
		asm.Append(kind, i, "sec", pkts)
	}
	return asm.Finish()
}

func TestAssemblerSections(t *testing.T) {
	c := cycleWith(t, 3, 5, 2)
	if c.Len() != 10 {
		t.Fatalf("cycle len %d", c.Len())
	}
	if len(c.Sections) != 3 {
		t.Fatalf("%d sections", len(c.Sections))
	}
	if c.Sections[1].Start != 3 || c.Sections[1].N != 5 {
		t.Fatalf("section 1 = %+v", c.Sections[1])
	}
	if s := c.Sections[1]; s.Kind != packet.KindData || s.Region != 1 {
		t.Fatalf("section 1 is %v of region %d, want region 1's data", s.Kind, s.Region)
	}
}

// TestNextIndexPointers: every packet points to the start of the next index
// section strictly after it, wrapping across the cycle boundary.
func TestNextIndexPointers(t *testing.T) {
	c := cycleWith(t, 2, 4, 3) // index at 0..1, data 2..5, index 6..8... wait kinds alternate: sec0 index, sec1 data, sec2 index
	// Sections: index [0,2), data [2,6), index [6,9).
	wantTargets := map[int]int{
		0: 6, // inside first index copy -> next copy
		1: 6,
		2: 6,
		5: 6,
		6: 0 + c.Len(), // inside second copy -> wrap to first
		8: 0 + c.Len(),
	}
	for pos, want := range wantTargets {
		got := pos + int(c.Packets[pos].NextIndex)
		if got != want {
			t.Errorf("packet %d points to %d, want %d", pos, got, want)
		}
	}
}

func TestOptimalM(t *testing.T) {
	if m := OptimalM(10000, 100); m != 10 {
		t.Errorf("OptimalM(10000,100) = %d, want 10", m)
	}
	if m := OptimalM(10, 100); m != 1 {
		t.Errorf("small data: m = %d, want 1", m)
	}
	if m := OptimalM(0, 0); m != 1 {
		t.Errorf("degenerate: m = %d, want 1", m)
	}
}

func TestChannelValidation(t *testing.T) {
	c := cycleWith(t, 2)
	if _, err := NewChannel(c, -0.1, 1); err == nil {
		t.Error("negative loss should be rejected")
	}
	if _, err := NewChannel(c, 1.0, 1); err == nil {
		t.Error("loss 1.0 should be rejected")
	}
	if _, err := NewChannel(&Cycle{}, 0, 1); err == nil {
		t.Error("empty cycle should be rejected")
	}
}

func TestLossDeterministicAndCalibrated(t *testing.T) {
	c := cycleWith(t, 50)
	ch, err := NewChannel(c, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	lost1, lost2 := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		if _, ok := ch.At(i); !ok {
			lost1++
		}
		if _, ok := ch.At(i); !ok {
			lost2++
		}
	}
	if lost1 != lost2 {
		t.Fatal("loss not deterministic per position")
	}
	rate := float64(lost1) / n
	if rate < 0.08 || rate > 0.12 {
		t.Errorf("empirical loss rate %.3f, want ~0.10", rate)
	}
}

func TestTunerAccounting(t *testing.T) {
	c := cycleWith(t, 10)
	ch, _ := NewChannel(c, 0, 1)
	tn := NewTuner(ch, 3)
	if tn.Latency() != 0 {
		t.Fatal("latency before any listen should be 0")
	}
	tn.Listen() // pos 3
	tn.SleepTo(8)
	tn.Listen() // pos 8
	if tn.Tuning() != 2 {
		t.Errorf("tuning %d, want 2", tn.Tuning())
	}
	if tn.Latency() != 6 { // 3..8 inclusive
		t.Errorf("latency %d, want 6", tn.Latency())
	}
	if tn.Pos() != 9 {
		t.Errorf("pos %d, want 9", tn.Pos())
	}
}

func TestTunerNextOccurrence(t *testing.T) {
	c := cycleWith(t, 10)
	ch, _ := NewChannel(c, 0, 1)
	tn := NewTuner(ch, 7)
	if got := tn.NextOccurrence(7); got != 7 {
		t.Errorf("NextOccurrence(7) = %d, want 7 (now)", got)
	}
	if got := tn.NextOccurrence(2); got != 12 {
		t.Errorf("NextOccurrence(2) = %d, want 12 (next cycle)", got)
	}
}

// TestTunerSeekIndex: SeekIndex listens once on a clean channel and sleeps
// to the index its packet names, and on a channel that loses everything it
// gives up after ten cycles of listening instead of spinning forever.
func TestTunerSeekIndex(t *testing.T) {
	c := cycleWith(t, 2, 4, 3) // index [0,2), data [2,6), index [6,9)
	ch, _ := NewChannel(c, 0, 1)
	for start, want := range map[int]int{3: 6, 6: 9, 10: 15} {
		tn := NewTuner(ch, start)
		got, err := tn.SeekIndex()
		if err != nil || got != want || tn.Pos() != want || tn.Tuning() != 1 {
			t.Errorf("from %d: SeekIndex = %d, %v (pos %d, tuning %d), want %d after one listen",
				start, got, err, tn.Pos(), tn.Tuning(), want)
		}
	}
	lossy, _ := NewChannel(c, 0.999999, 1)
	tn := NewTuner(lossy, 0)
	if _, err := tn.SeekIndex(); err == nil || tn.Tuning() != 10*c.Len()+1 {
		t.Errorf("all lost: SeekIndex err %v after %d listens, want an error after %d", err, tn.Tuning(), 10*c.Len()+1)
	}
}

func TestTunerSleepBackwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on rewind")
		}
	}()
	c := cycleWith(t, 10)
	ch, _ := NewChannel(c, 0, 1)
	tn := NewTuner(ch, 5)
	tn.SleepTo(3)
}
