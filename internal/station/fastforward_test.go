package station

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/broadcast"
)

// awaitSwap returns the swap position, failing the test if the swap takes
// longer than limit to reach the air.
func awaitSwap(t *testing.T, swapped <-chan int, limit time.Duration) int {
	t.Helper()
	select {
	case pos, ok := <-swapped:
		if !ok {
			t.Fatal("swap abandoned")
		}
		return pos
	case <-time.After(limit):
		t.Fatalf("swap not on the air after %v", limit)
		return 0
	}
}

// TestIdleSwapJumpsToBoundary pins the idle-station fix: with nobody tuned
// in, a pending swap reaches the air at once — the clock jumps to the cycle
// boundary instead of crawling there one idle sleep per packet — and the
// swap position is still the first boundary at or after the request.
func TestIdleSwapJumpsToBoundary(t *testing.T) {
	c1, c2 := versionedCycle(9_999, 1), versionedCycle(9_999, 2)
	st := startStation(t, c1, Config{Start: 1})
	before := st.Pos()
	swapped, err := st.Swap(c2)
	if err != nil {
		t.Fatal(err)
	}
	pos := awaitSwap(t, swapped, 100*time.Millisecond)
	if want := (before + c1.Len() - 1) / c1.Len() * c1.Len(); pos != want {
		t.Fatalf("swap at %d, want the first boundary at or after %d: %d", pos, before, want)
	}
	if st.Version() != 2 {
		t.Fatalf("station on version %d after the swap", st.Version())
	}
}

// TestIdleGroupSwap is the same bound for a listener-less group, whose swap
// cuts at a tick rather than a boundary.
func TestIdleGroupSwap(t *testing.T) {
	members := make([]*Station, 3)
	next := make([]*broadcast.Cycle, len(members))
	for i := range members {
		st, err := New(versionedCycle(9_999, 1), Config{})
		if err != nil {
			t.Fatal(err)
		}
		members[i], next[i] = st, versionedCycle(9_999, 2)
	}
	g, err := NewGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	before := members[0].Pos()
	swapped, err := g.Swap(next)
	if err != nil {
		t.Fatal(err)
	}
	if tick := awaitSwap(t, swapped, 100*time.Millisecond); tick < before {
		t.Fatalf("group swap at tick %d, before the request at %d", tick, before)
	}
	for i, st := range members {
		if st.Version() != 2 {
			t.Fatalf("member %d on version %d after the swap", i, st.Version())
		}
	}
}

// TestJumpStopsAtPendingSwapBoundary checks the one thing a single
// station's fast-forward may not skip besides a want: with a swap pending
// and its only listener asleep several cycles ahead, the clock still stops
// at the next boundary to make the swap, so the listener wakes up on the
// new version.
func TestJumpStopsAtPendingSwapBoundary(t *testing.T) {
	c1, c2 := versionedCycle(40, 1), versionedCycle(52, 2)
	st := startStation(t, c1, Config{Start: 3})
	sub, err := st.SubscribeExact(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if p, ok := sub.At(sub.Start()); !ok || p.Version != 1 {
		t.Fatalf("first reception: version %d ok=%v", p.Version, ok)
	}
	// The subscription holds the clock just past its want, so the request
	// position is known exactly.
	before := st.Pos()
	swapped, err := st.Swap(c2)
	if err != nil {
		t.Fatal(err)
	}
	target := sub.Start() + 5*c1.Len() + 7
	p, ok := sub.At(target)
	if !ok {
		t.Fatalf("lossless position %d lost", target)
	}
	pos := awaitSwap(t, swapped, time.Second)
	if want := (before + c1.Len() - 1) / c1.Len() * c1.Len(); pos != want {
		t.Fatalf("swap at %d, want the first boundary at or after %d: %d (the jump crossed it)", pos, before, want)
	}
	want := c2.Packets[target%c2.Len()]
	if p.Version != 2 || string(p.Payload) != string(want.Payload) {
		t.Fatalf("position %d after the swap at %d: version %d payload %v, want version 2 payload %v",
			target, pos, p.Version, p.Payload, want.Payload)
	}
	if sub.Missed() != 0 {
		t.Fatalf("virtual clock missed %d positions", sub.Missed())
	}
}

// TestSkippedPacketsCounted pins the two clock counters after a dozing
// query: air_station_packets_total still counts every position the clock
// passed, air_station_skipped_packets_total the ones it passed without a
// step.
func TestSkippedPacketsCounted(t *testing.T) {
	cycle := testCycle(500)
	st, err := New(cycle, Config{})
	if err != nil {
		t.Fatal(err)
	}
	packets, skipped := obsPackets.Value(), obsSkipped.Value()
	if err := st.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sub, err := st.SubscribeExact(0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	tuner := broadcast.NewFeedTuner(sub, sub.Start())
	listened := 0
	for doze := 0; doze < 6; doze++ {
		tuner.SleepTo(tuner.Pos() + cycle.Len()/3)
		tuner.WillListen(20)
		for i := 0; i < 20; i++ {
			tuner.Listen()
			listened++
		}
	}
	sub.Close()
	st.Stop()
	passed := int64(st.Pos())
	gotPackets, gotSkipped := obsPackets.Value()-packets, obsSkipped.Value()-skipped
	if gotPackets != passed {
		t.Errorf("air_station_packets_total advanced %d, the clock passed %d positions", gotPackets, passed)
	}
	if gotSkipped <= 0 || gotSkipped > passed-int64(listened) {
		t.Errorf("air_station_skipped_packets_total advanced %d, want in (0, %d]", gotSkipped, passed-int64(listened))
	}
	if dozed := int64(6 * (cycle.Len()/3 - 20)); gotSkipped < dozed {
		t.Errorf("skipped %d positions, but the listener dozed over at least %d", gotSkipped, dozed)
	}
}

// TestHopNeverMissesUnderJump is the hop-versus-scan stress: radios hop
// between the members of a virtual-clock group (WakeAt on the destination,
// then Park on the origin) after dozes of every length while the group
// fast-forwards. A jump that passed a tick some radio was hopping to would
// leave that radio waiting for good (or, had something later been buffered,
// surface as a missedAt reception, which a virtual clock must never
// produce); received content is checked as well.
// Run it in a -count loop to widen the interleavings.
func TestHopNeverMissesUnderJump(t *testing.T) {
	const k, radios, hops = 4, 8, 1500
	members := make([]*Station, k)
	cycles := make([]*broadcast.Cycle, k)
	for c := range members {
		cycles[c] = testCycle(90 + 7*c)
		st, err := New(cycles[c], Config{})
		if err != nil {
			t.Fatal(err)
		}
		members[c] = st
	}
	g, err := NewGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	var wg sync.WaitGroup
	for r := 0; r < radios; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			subs := make([]*Sub, k)
			tick := 0
			for c, st := range members {
				sub, err := st.SubscribeExact(0, int64(id))
				if err != nil {
					t.Error(err)
					return
				}
				defer sub.Close()
				subs[c] = sub
				tick = max(tick, sub.Start())
			}
			tick += 2 // as multichannel.Station.Subscribe tunes in
			cur := id % k
			for c, sub := range subs {
				if c != cur {
					sub.Park()
				}
			}
			for h := 0; h < hops; h++ {
				// Mostly short dozes (the hop races the scan), some long ones
				// (the jump has somewhere to go).
				doze := rng.Intn(3)
				if rng.Intn(8) == 0 {
					doze = rng.Intn(4 * cycles[0].Len())
				}
				tick += doze
				// Up to two retunes before the next reception: a radio that
				// changes its mind hops again with nothing delivered in between,
				// so neither hop is ordered against the group's scan by a hold.
				for retunes := rng.Intn(3); retunes > 0; retunes-- {
					if to := rng.Intn(k); to != cur {
						// The origin holds the clock only through the tick after
						// its want, so the destination may have transmitted that
						// one already (Rx.arrival's retune cost).
						tick += 2
						subs[to].WakeAt(tick)
						subs[cur].Park()
						cur = to
					}
				}
				p, ok := subs[cur].At(tick)
				want := cycles[cur].Packets[tick%cycles[cur].Len()]
				if !ok || p.Kind != want.Kind || string(p.Payload) != string(want.Payload) {
					t.Errorf("radio %d channel %d tick %d: got %v/%v ok=%v, want %v/%v",
						id, cur, tick, p.Kind, p.Payload, ok, want.Kind, want.Payload)
					return
				}
				tick++
			}
			for c, sub := range subs {
				if m := sub.Missed(); m != 0 {
					t.Errorf("radio %d channel %d: %d receptions missed on a virtual clock", id, c, m)
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// An exact subscription whose want the clock has passed holds the
		// clock for good: a skipped want shows as a hang, not as a loss.
		t.Fatal("radios still waiting after 30s: the clock passed a tick somebody wanted")
	}
}

// TestRearmBumpsWantGeneration pins the mechanism the stress above relies
// on: re-arming a parked subscription — the only time a want falls — moves
// the want generation a fast-forward scan checks, on the group's counter
// for a member station; a rising want leaves it alone.
func TestRearmBumpsWantGeneration(t *testing.T) {
	st, err := New(testCycle(10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup([]*Station{st})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	sub, err := st.SubscribeExact(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	gen := g.wantGen.Load()
	sub.Prefetch(sub.Start()+3, 2)
	sub.WakeAt(sub.Start() + 5)
	sub.Park()
	if got := g.wantGen.Load(); got != gen {
		t.Fatalf("rising wants moved the generation %d -> %d", gen, got)
	}
	sub.Prefetch(sub.Start()+8, 2)
	if w := sub.want.Load(); w != parked {
		t.Fatalf("Prefetch re-armed a parked subscription: want %d", w)
	}
	sub.WakeAt(sub.Start() + 9)
	if got := g.wantGen.Load(); got != gen+1 {
		t.Fatalf("re-arming a parked subscription: generation %d, want %d", got, gen+1)
	}
}
