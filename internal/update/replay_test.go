package update

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/packet"
)

// dataCycle returns a cycle of n data packets.
func dataCycle(n int) *broadcast.Cycle {
	asm := broadcast.NewAssembler()
	asm.Append(packet.KindData, 0, "data", make([]packet.Packet, n))
	return asm.Finish()
}

// TestReplaySpanAllocatesNothing pins the replay's run reception at zero
// allocations, and checks that a view never crosses a swap: Len holds
// across every view.
func TestReplaySpanAllocatesNothing(t *testing.T) {
	rp, err := NewReplay(dataCycle(50), 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.SwapAt(100, dataCycle(33)); err != nil {
		t.Fatal(err)
	}
	pos := 0
	if n := testing.AllocsPerRun(200, func() {
		before := pos
		pkts, _ := rp.Span(pos, 64)
		pos += len(pkts)
		if before < 100 && pos > 100 {
			t.Fatalf("view [%d,%d) crosses the swap at 100", before, pos)
		}
	}); n != 0 {
		t.Fatalf("Replay.Span allocates %v times per view", n)
	}
}
