package broadcast_test

import (
	"fmt"
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

// FuzzRecoveryOrder drives one reception plan two ways side by side on
// identical feeds: Tuner.Fetch and Tuner.Recover, and a replay of the
// NearestOf greedy they replaced, position by position (a list rescanned
// per pick, removal keeping order, a re-lost position appended). The feed
// is a lossy broadcast.Channel, an offline K-channel multichannel.Air
// (K = 2, 3, 4; warm or cold radio), or an update.Replay that swaps to a
// cycle of another length mid-plan. The input names batches of runs
// (overlaps allowed, some longer than one Span view), each batch fetched
// in one call and recovered after it or only after the last; losses and
// re-losses come from the air. Both sides must deliver the same (id,
// cycle position) sequence with their tuners at the same Pos, Tuning,
// Latency and version window after every delivery and every call.
func FuzzRecoveryOrder(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(5), []byte{12, 3, 9, 200, 3, 77, 140, 10, 250, 1, 2, 0x81, 40, 2, 7})
	f.Add(uint8(1), int64(2), uint16(300), []byte{20, 0, 1, 2, 3, 60, 61, 62, 119, 118, 5, 5, 5, 90, 91, 92, 30, 31, 33, 2, 0x82, 7, 1})
	f.Add(uint8(2), int64(3), uint16(41), []byte{30, 9, 18, 27, 36, 45, 54, 63, 72, 81, 90, 99, 108, 117, 126, 135, 144, 153, 162, 171, 180, 189, 198, 207, 216, 225, 234, 243, 252, 4, 13, 0x80, 100, 0x80, 101})
	f.Add(uint8(3), int64(4), uint16(9), []byte{16, 100, 99, 98, 97, 3, 2, 1, 0, 50, 51, 52, 53, 150, 151, 152, 153, 0x83, 8})
	f.Add(uint8(4), int64(5), uint16(70), []byte{24, 1, 140, 2, 139, 3, 138, 4, 137, 5, 136, 6, 135, 7, 134, 8, 133, 9, 132, 10, 131, 11, 130, 12, 129, 2, 1})
	f.Add(uint8(0x43), int64(6), uint16(260), []byte{10, 0x83, 20, 40, 60, 80, 100, 120, 140, 160, 180, 0x81, 3})
	f.Add(uint8(0x42), int64(7), uint16(1000), []byte{8, 7, 7, 7, 7, 8, 8, 8, 8})
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

		// delivery is one packet handed to the client, with the tuner's
		// state right after it.
		type delivery struct {
			id, cyclePos, pos, tuning, latency int
			mixed                              bool
		}
		note := func(tu *broadcast.Tuner, id, cp int) delivery {
			return delivery{id, cp, tu.Pos(), tu.Tuning(), tu.Latency(), tu.VersionMixed()}
		}
		var got, want []delivery
		fn := func(id, cp int, _ packet.Packet) { got = append(got, note(tb, id, cp)) }
		type run struct{ id, cyclePos, n int }
		var lost []run // the oracle's outstanding losses, runs of one
		// fetch replays Tuner.Fetch on ta.
		fetch := func(runs []run) {
			for len(runs) > 0 {
				k := ta.NearestOf(len(runs), func(i int) int { return runs[i].cyclePos })
				r := runs[k]
				runs = append(runs[:k], runs[k+1:]...)
				ta.SleepTo(ta.NextOccurrence(r.cyclePos))
				for range r.n {
					abs := ta.Pos()
					_, ok := ta.Listen()
					cp := abs % ta.CycleLen()
					if !ok {
						lost = append(lost, run{r.id, cp, 1})
						continue
					}
					want = append(want, note(ta, r.id, cp))
				}
			}
		}
		// recoverLost replays Tuner.Recover on ta.
		recoverLost := func() {
			for step := 0; len(lost) > 0; step++ {
				if step > 20000 {
					t.Fatal("recovery did not terminate")
				}
				k := ta.NearestOf(len(lost), func(i int) int { return lost[i].cyclePos })
				r := lost[k]
				lost = append(lost[:k], lost[k+1:]...)
				ta.SleepTo(ta.NextOccurrence(r.cyclePos))
				if _, ok := ta.Listen(); !ok {
					lost = append(lost, r)
					continue
				}
				want = append(want, note(ta, r.id, r.cyclePos))
			}
		}
		check := func(call string) {
			t.Helper()
			for i := range max(len(got), len(want)) {
				if i >= len(got) || i >= len(want) || got[i] != want[i] {
					t.Fatalf("%s: delivery %d differs: %d from Fetch/Recover, %d from the greedy:\n got  %v\n want %v",
						call, i, len(got), len(want), got[min(i, len(got)):], want[min(i, len(want)):])
				}
			}
			if ta.Pos() != tb.Pos() || ta.Tuning() != tb.Tuning() || ta.Latency() != tb.Latency() || ta.VersionMixed() != tb.VersionMixed() {
				t.Fatalf("%s: tuners diverged: pos %d/%d tuning %d/%d latency %d/%d mixed %v/%v", call,
					tb.Pos(), ta.Pos(), tb.Tuning(), ta.Tuning(), tb.Latency(), ta.Latency(), tb.VersionMixed(), ta.VersionMixed())
			}
		}

		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		var plan broadcast.Plan
		plan.Want(0, 0, 5)
		plan.Reset() // a query aborted part way leaves nothing behind
		batches := 1 + next()%3
		for batch, id := 0, 0; batch < batches; batch++ {
			ctl := next()
			var runs []run
			for range 1 + ctl%16 {
				r := run{id, next() % l, 1 + next()%72}
				id++
				runs = append(runs, r)
				plan.Want(r.id, r.cyclePos, r.n)
			}
			tb.Fetch(&plan, fn)
			fetch(runs)
			check(fmt.Sprintf("batch %d Fetch", batch))
			if ctl&0x80 != 0 || batch == batches-1 {
				tb.Recover(&plan, fn)
				recoverLost()
				check(fmt.Sprintf("batch %d Recover", batch))
			}
		}
	})
}
