package station

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/packet"
)

// versionedCycle builds a cycle of n data packets stamped with version v;
// payloads encode position and version so received content is checkable.
func versionedCycle(n int, v uint32) *broadcast.Cycle {
	a := broadcast.NewAssembler()
	a.Append(packet.KindIndex, -1, "index", []packet.Packet{{Kind: packet.KindIndex}})
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		pkts[i] = packet.Packet{Kind: packet.KindData, Payload: []byte{byte(i), byte(i >> 8), byte(v)}}
	}
	a.Append(packet.KindData, 0, "data", pkts)
	c := a.Finish()
	c.SetVersion(v)
	return c
}

// clocks are the two clock models the swap and stop tests run on: virtual,
// and paced at 0.1 ms a packet, with a Buffer (1.6 s of air) no scheduling
// stall outruns — these tests are about swaps, not misses.
var clocks = []struct {
	name string
	cfg  Config
}{{"virtual", Config{}}, {"paced", Config{BitsPerSecond: 10_240_000, Buffer: 1 << 14}}}

// TestSwapAtCycleBoundary pins the single-station swap protocol: the swap
// position is a multiple of the outgoing cycle's length (the outgoing
// version completes its final cycle — no cycle mixes versions), every
// packet before it carries the old version and every packet from it on the
// new one, and content always matches version-of(position).
func TestSwapAtCycleBoundary(t *testing.T) {
	for _, clk := range clocks {
		t.Run(clk.name, func(t *testing.T) {
			c1 := versionedCycle(40, 1)
			c2 := versionedCycle(52, 2) // a different length, like a delta trailer
			st := startStation(t, c1, clk.cfg)
			sub, err := st.Subscribe(0, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			swapped, err := st.Swap(c2)
			if err != nil {
				t.Fatal(err)
			}
			// Only a swap on the air frees the slot: a paced clock may have
			// reached the boundary since the first call.
			if _, err := st.Swap(c2); err == nil && len(swapped) == 0 {
				t.Fatal("second pending swap accepted")
			}

			var swapPos int
			gotSwap := false
			start := sub.Start()
			for i := 0; i < 4*c1.Len(); i++ {
				abs := start + i
				p, ok := sub.At(abs)
				if !ok {
					t.Fatalf("lossless position %d lost", abs)
				}
				if !gotSwap {
					select {
					case swapPos = <-swapped:
						gotSwap = true
						if swapPos%c1.Len() != 0 {
							t.Fatalf("swap at %d, not a multiple of outgoing length %d", swapPos, c1.Len())
						}
					default:
					}
				}
				// Everything strictly before a known swap position is version 1;
				// everything at or after it is version 2 with the new content.
				switch {
				case gotSwap && abs >= swapPos:
					if p.Version != 2 {
						t.Fatalf("position %d (swap at %d): version %d, want 2", abs, swapPos, p.Version)
					}
					want := c2.Packets[abs%c2.Len()]
					if p.Kind != want.Kind || string(p.Payload) != string(want.Payload) {
						t.Fatalf("position %d: content does not match version-2 cycle", abs)
					}
				case p.Version != 1:
					// A version-2 packet observed before the swap notification is
					// only possible if the notification lagged; re-check the channel.
					select {
					case swapPos = <-swapped:
						gotSwap = true
					case <-time.After(5 * time.Second):
						t.Fatalf("position %d: version %d without a swap", abs, p.Version)
					}
					if swapPos%c1.Len() != 0 || abs < swapPos {
						t.Fatalf("version-2 packet at %d before swap position %d", abs, swapPos)
					}
				default:
					want := c1.Packets[abs%c1.Len()]
					if p.Kind != want.Kind || string(p.Payload) != string(want.Payload) {
						t.Fatalf("position %d: content does not match version-1 cycle", abs)
					}
				}
			}
			if !gotSwap {
				t.Fatal("swap never applied")
			}
			if st.Version() != 2 || st.Len() != c2.Len() {
				t.Fatalf("station reports version %d len %d after swap", st.Version(), st.Len())
			}
		})
	}
}

// TestSwapChurn is the churn scenario under -race: subscribers tuning in,
// receiving, sleeping and dropping out while the station swaps cycle
// versions underneath them. It must not deadlock, versions must be
// monotonic per subscriber, and every intact packet's content must match
// its version's cycle.
func TestSwapChurn(t *testing.T) {
	const swaps = 8
	lens := []int{30, 37, 30, 44, 31}
	cycles := make([]*broadcast.Cycle, swaps+1)
	for i := range cycles {
		cycles[i] = versionedCycle(lens[i%len(lens)], uint32(i+1))
	}
	st := startStation(t, cycles[0], Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the updater: roll versions as fast as swaps apply
		defer wg.Done()
		for i := 1; i <= swaps; i++ {
			c := cycles[i]
			swapped, err := st.Swap(c)
			if err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			select {
			case <-swapped:
			case <-ctx.Done():
				return
			}
		}
	}()

	const clients = 8
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for q := 0; q < 30; q++ {
				sub, err := st.Subscribe(float64(w%3)*0.1, int64(w*100+q))
				if err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				abs := sub.Start()
				lastVer := uint32(0)
				for i := 0; i < 40; i++ {
					if rng.Intn(4) == 0 {
						abs += rng.Intn(20) // sleep: skip ahead
						sub.WakeAt(abs)
					}
					p, ok := sub.At(abs)
					if ok {
						if p.Version < lastVer {
							t.Errorf("client %d: version went backwards %d -> %d", w, lastVer, p.Version)
							sub.Close()
							return
						}
						lastVer = p.Version
						if p.Kind == packet.KindData && int(p.Payload[2]) != int(p.Version) {
							t.Errorf("client %d: position %d content version %d under header version %d",
								w, abs, p.Payload[2], p.Version)
							sub.Close()
							return
						}
					}
					abs++
				}
				sub.Close()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("churn deadlocked")
	}
}

// TestSwapAbandonedOnStop: a swap still pending when the station (or a
// group) leaves the air must not strand waiters — its channel closes
// without a value — and must not survive into a later Start.
func TestSwapAbandonedOnStop(t *testing.T) {
	for _, clk := range clocks {
		t.Run(clk.name, func(t *testing.T) {
			c1, c2 := versionedCycle(30, 1), versionedCycle(30, 2)

			st := startStation(t, c1, clk.cfg)
			// An exact subscription that never advances its want holds the virtual
			// clock within a tick or two of its tune-in, so the boundary-aligned
			// swap (almost) never gets to apply before Stop; the waiter below
			// accepts either outcome, and Stop must resolve it either way.
			sub, err := st.SubscribeExact(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			swapped, err := st.Swap(c2)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if pos, ok := <-swapped; ok {
					// Applied before Stop won the race: must be boundary-aligned.
					if pos%c1.Len() != 0 {
						t.Errorf("swap at %d not boundary-aligned", pos)
					}
				}
			}()
			if clk.cfg.BitsPerSecond > 0 {
				sleeperWakesOnStop(t, st)
			} else {
				st.Stop()
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("swap waiter stranded after Stop")
			}
			if st.SwapPending() {
				t.Fatal("pending swap survived Stop")
			}

			// Group: same contract.
			ga, err := New(versionedCycle(20, 1), clk.cfg)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := New(versionedCycle(25, 1), clk.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGroup([]*Station{ga, gb})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			subA, err := ga.SubscribeExact(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			subA.Park()
			subB, err := gb.SubscribeExact(0, 3)
			if err != nil {
				t.Fatal(err)
			}
			// subB's initial want holds the shared clock, so the group cannot tick
			// and the swap stays pending.
			gswapped, err := g.Swap([]*broadcast.Cycle{versionedCycle(20, 2), versionedCycle(25, 2)})
			if err != nil {
				t.Fatal(err)
			}
			gdone := make(chan struct{})
			go func() { defer close(gdone); <-gswapped }()
			g.Stop()
			select {
			case <-gdone:
			case <-time.After(10 * time.Second):
				t.Fatal("group swap waiter stranded after Stop")
			}
			if g.SwapPending() {
				t.Fatal("group pending swap survived Stop")
			}
			subA.Close()
			subB.Close()
		})
	}
}

// sleeperWakesOnStop stops a paced station while a listener sleeps in At
// on a position 10 s of air away: At must return within a second of Stop,
// with the position's replay.
func sleeperWakesOnStop(t *testing.T, st *Station) {
	t.Helper()
	sub, err := st.Subscribe(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	far := sub.Start() + int(10*time.Second/st.clk.interval)
	type reception struct {
		p  packet.Packet
		ok bool
	}
	got := make(chan reception, 1)
	go func() {
		p, ok := sub.At(far)
		got <- reception{p, ok}
	}()
	// Give the listener time to fall asleep; had it not yet, At would find
	// the air off and replay at once, which the checks below accept too.
	time.Sleep(20 * time.Millisecond)
	stopped := time.Now()
	st.Stop()
	select {
	case r := <-got:
		if took := time.Since(stopped); took > time.Second {
			t.Fatalf("At returned %v after Stop", took)
		}
		c := st.Cycle()
		want := c.Packets[far%c.Len()]
		if !r.ok || r.p.Version != c.Version || string(r.p.Payload) != string(want.Payload) {
			t.Fatalf("position %d after Stop: version %d %v ok=%v, want the replay's version %d %v",
				far, r.p.Version, r.p.Payload, r.ok, c.Version, want.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a listener asleep on a far position still asleep 5s after Stop")
	}
}

// TestGroupSwapAtomic drives two grouped stations with different cycle
// lengths and checks the group swap applies to both at one global tick: a
// subscriber walking both shards in lockstep never observes the shards
// disagreeing on the version at the same tick.
func TestGroupSwapAtomic(t *testing.T) {
	for _, clk := range clocks {
		t.Run(clk.name, func(t *testing.T) {
			a1, b1 := versionedCycle(20, 1), versionedCycle(33, 1)
			a2, b2 := versionedCycle(26, 2), versionedCycle(29, 2)
			stA, err := New(a1, clk.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stB, err := New(b1, clk.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGroup([]*Station{stA, stB})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer g.Stop()

			subA, err := stA.SubscribeExact(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer subA.Close()
			subB, err := stB.SubscribeExact(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer subB.Close()

			if _, err := g.Swap([]*broadcast.Cycle{a2}); err == nil {
				t.Fatal("group swap accepted wrong cycle count")
			}
			swapped, err := g.Swap([]*broadcast.Cycle{a2, b2})
			if err != nil {
				t.Fatal(err)
			}

			// One goroutine receives tick by tick on both shards, so each declares
			// the whole span it will walk: an exact subscription's want alone would
			// hold the shared clock below the next tick its sibling needs. The swap
			// applies between ticks: both shards must flip at the same tick.
			start := max(subA.Start(), subB.Start()) + 2
			subA.Prefetch(start, 120)
			subB.Prefetch(start, 120)
			swapTick := -1
			for i := 0; i < 120; i++ {
				tick := start + i
				pa, _ := subA.At(tick)
				pb, _ := subB.At(tick)
				if pa.Version != pb.Version {
					t.Fatalf("tick %d: shard versions %d vs %d — swap not atomic", tick, pa.Version, pb.Version)
				}
				if swapTick < 0 && pa.Version == 2 {
					swapTick = tick
					select {
					case applied := <-swapped:
						if applied > tick {
							t.Fatalf("swap reported at tick %d but observed at %d", applied, tick)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("swap channel never reported")
					}
				}
				if swapTick >= 0 && pa.Version != 2 {
					t.Fatalf("tick %d: version regressed after swap at %d", tick, swapTick)
				}
			}
			if swapTick < 0 {
				t.Fatal("swap never observed")
			}
		})
	}
}
