package scheme

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/packet"
)

func testCycle(n int) *broadcast.Cycle {
	asm := broadcast.NewAssembler()
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		payload := make([]byte, packet.PayloadSize)
		payload[0] = packet.TagNode
		payload[1] = 1
		payload[3] = byte(i)
		pkts[i] = packet.Packet{Kind: packet.KindData, Payload: payload}
	}
	asm.Append(packet.KindData, -1, "data", pkts)
	return asm.Finish()
}

// receiveCycle runs one ReceiveCycle on l and checks that every one of the
// cycle's n positions reached both the collector and aux, aux exactly once.
func receiveCycle(t *testing.T, l *Local, tn *broadcast.Tuner, n int) {
	t.Helper()
	got := map[int]int{}
	l.ReceiveCycle(tn, func(cp int, p packet.Packet) { got[cp]++ })
	if len(got) != n {
		t.Fatalf("aux saw %d positions, want %d", len(got), n)
	}
	for cp, k := range got {
		if k != 1 {
			t.Fatalf("position %d handed to aux %d times", cp, k)
		}
	}
	for cp := 0; cp < n; cp++ {
		if !l.coll.Processed(cp) {
			t.Fatalf("position %d never reached the collector", cp)
		}
	}
}

func TestReceiveCycleLossless(t *testing.T) {
	c := testCycle(40)
	ch, _ := broadcast.NewChannel(c, 0, 1)
	tn := broadcast.NewTuner(ch, 13) // mid-cycle tune-in
	var l Local
	receiveCycle(t, &l, tn, 40)
	if tn.Tuning() != 40 {
		t.Errorf("tuning %d, want 40", tn.Tuning())
	}
	if tn.Latency() != 40 {
		t.Errorf("latency %d, want exactly one cycle", tn.Latency())
	}
}

func TestReceiveCycleWithLoss(t *testing.T) {
	c := testCycle(60)
	ch, _ := broadcast.NewChannel(c, 0.15, 7)
	tn := broadcast.NewTuner(ch, 0)
	var l Local
	receiveCycle(t, &l, tn, 60)
	if tn.Tuning() <= 60 {
		t.Errorf("tuning %d should exceed one cycle under loss", tn.Tuning())
	}
	// The frame's collector and plan are reused: a second query on the same
	// frame, tuned in elsewhere, again hands over every position once.
	receiveCycle(t, &l, broadcast.NewTuner(ch, 25), 60)
}
