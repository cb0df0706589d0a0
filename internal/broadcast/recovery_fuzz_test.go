package broadcast_test

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/multichannel"
	"repro/internal/packet"
	"repro/internal/update"
)

// regionCycle assembles regions data sections of uneven length, with a
// global index copy before every third: enough structure for a K-channel
// plan to spread regions over channels of different cycle lengths.
func regionCycle(regions, base int) *broadcast.Cycle {
	asm := broadcast.NewAssembler()
	for r := 0; r < regions; r++ {
		if r%3 == 0 {
			asm.Append(packet.KindIndex, -1, "index", make([]packet.Packet, 2))
		}
		data := make([]packet.Packet, base+r*r%7)
		for i := range data {
			data[i].Kind = packet.KindData
		}
		asm.Append(packet.KindData, r, "region", data)
	}
	return asm.Finish()
}

// FuzzRecoveryOrder drives one loss recovery two ways side by side on
// identical feeds: the ArrivalQueue, and the NearestOf greedy it replaced
// (a list rescanned per pick, removal keeping order, a re-lost entry
// appended). The feed is a lossy broadcast.Channel, an offline K-channel
// multichannel.Air (K = 2, 3, 4; warm or cold radio), or an update.Replay
// that swaps to a cycle of another length mid-recovery. The input names
// the outstanding set (duplicates allowed), each pick's span length and
// fresh positions lost along the way; re-losses come from the air. Both
// sides must pick the same entry every time and leave their tuners at the
// same Pos, Tuning, Latency and version window.
func FuzzRecoveryOrder(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(5), []byte{12, 3, 9, 200, 3, 77, 140, 10, 250, 1, 2, 0x81, 40, 2, 7})
	f.Add(uint8(1), int64(2), uint16(300), []byte{20, 0, 1, 2, 3, 60, 61, 62, 119, 118, 5, 5, 5, 90, 91, 92, 30, 31, 33, 2, 0x82, 7, 1})
	f.Add(uint8(2), int64(3), uint16(41), []byte{30, 9, 18, 27, 36, 45, 54, 63, 72, 81, 90, 99, 108, 117, 126, 135, 144, 153, 162, 171, 180, 189, 198, 207, 216, 225, 234, 243, 252, 4, 13, 0x80, 100, 0x80, 101})
	f.Add(uint8(3), int64(4), uint16(9), []byte{16, 100, 99, 98, 97, 3, 2, 1, 0, 50, 51, 52, 53, 150, 151, 152, 153, 0x83, 8})
	f.Add(uint8(4), int64(5), uint16(70), []byte{24, 1, 140, 2, 139, 3, 138, 4, 137, 5, 136, 6, 135, 7, 134, 8, 133, 9, 132, 10, 131, 11, 130, 12, 129, 2, 1})
	f.Add(uint8(8), int64(6), uint16(260), []byte{10, 0, 20, 40, 60, 80, 100, 120, 140, 160, 180, 0x81, 3})
	f.Add(uint8(6), int64(7), uint16(1000), []byte{8, 7, 7, 7, 7, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, sel uint8, seed int64, start uint16, ops []byte) {
		if len(ops) == 0 {
			return
		}
		const loss = 0.3
		c := regionCycle(8, 9)
		l := c.Len()
		tuneIn := int(start) % (3 * l)
		var mk func() *broadcast.Tuner
		switch kind := sel % 5; kind {
		case 0:
			ch, err := broadcast.NewChannel(c, loss, seed)
			if err != nil {
				t.Fatal(err)
			}
			mk = func() *broadcast.Tuner { return broadcast.NewTuner(ch, tuneIn) }
		case 1, 2, 3:
			plan, err := multichannel.Build(c, int(kind)+1, multichannel.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			air, err := multichannel.NewAir(plan, loss, seed)
			if err != nil {
				t.Fatal(err)
			}
			opts := multichannel.RxOptions{Channel: int(start) % plan.K(), Cold: sel&0x40 != 0}
			mk = func() *broadcast.Tuner {
				tu, _, err := air.Tuner(tuneIn, opts)
				if err != nil {
					t.Fatal(err)
				}
				return tu
			}
		case 4:
			// The swap lands one to three cycles after tune-in, while the
			// recovery below is still running.
			c2 := regionCycle(6, 5+int(sel>>5))
			swap := (tuneIn/l + 1 + int(sel>>3)%3) * l
			mk = func() *broadcast.Tuner {
				rp, err := update.NewReplay(c, loss, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := rp.SwapAt(swap, c2); err != nil {
					t.Fatal(err)
				}
				return broadcast.NewFeedTuner(rp, tuneIn)
			}
		}
		ta, tb := mk(), mk()

		// The outstanding set: ops[0] names its size, the bytes after it
		// the positions.
		n := 1 + int(ops[0])%48
		ops = ops[1:]
		var cps []int // by ID
		var list []int
		var q broadcast.ArrivalQueue
		lose := func(cp int) {
			id := len(cps)
			cps = append(cps, cp)
			list = append(list, id)
			q.Push(tb, id, cp)
		}
		for i := 0; i < n && len(ops) > 0; i++ {
			lose(int(ops[0]) % l)
			ops = ops[1:]
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		cp := func(id int) int { return cps[id] }
		for step := 0; len(list) > 0; step++ {
			if step > 20000 {
				t.Fatal("recovery did not terminate")
			}
			k := ta.NearestOf(len(list), func(i int) int { return cps[list[i]] })
			want := list[k]
			list = append(list[:k], list[k+1:]...)
			got, ok := q.Pop(tb, cp)
			if !ok || got != want {
				t.Fatalf("step %d: queue popped %d (ok %v), NearestOf picked %d", step, got, ok, want)
			}
			b := next()
			var intact [2]bool
			for s, tu := range []*broadcast.Tuner{ta, tb} {
				tu.SleepTo(tu.NextOccurrence(cps[want]))
				_, intact[s] = tu.Listen()
				for range int(b % 3) { // the rest of a span
					tu.Listen()
				}
			}
			if intact[0] != intact[1] {
				t.Fatalf("step %d: the two tuners saw different air", step)
			}
			if !intact[0] {
				list = append(list, want)
				q.Push(tb, want, cps[want])
			}
			if b&0x80 != 0 {
				lose(int(next()) % l)
			}
			if ta.Pos() != tb.Pos() || ta.Tuning() != tb.Tuning() || ta.Latency() != tb.Latency() || ta.VersionMixed() != tb.VersionMixed() {
				t.Fatalf("step %d: tuners diverged: pos %d/%d tuning %d/%d latency %d/%d mixed %v/%v", step,
					ta.Pos(), tb.Pos(), ta.Tuning(), tb.Tuning(), ta.Latency(), tb.Latency(), ta.VersionMixed(), tb.VersionMixed())
			}
		}
		if _, ok := q.Pop(tb, cp); ok {
			t.Fatal("queue outlived the list")
		}
	})
}
