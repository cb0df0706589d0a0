package station

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/packet"
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

// TestVirtualStartAddsNoGoroutine: a virtual station or group is a clock,
// not a transmitter — starting one leaves the goroutine count alone — while
// a paced one still starts its transmit loop.
func TestVirtualStartAddsNoGoroutine(t *testing.T) {
	startStop := func(cfg Config, group bool) int {
		members := make([]*Station, 1, 3)
		members[0], _ = New(testCycle(20), cfg)
		start, stop := members[0].Start, members[0].Stop
		if group {
			for len(members) < cap(members) {
				st, _ := New(testCycle(30), cfg)
				members = append(members, st)
			}
			g, err := NewGroup(members)
			if err != nil {
				t.Fatal(err)
			}
			start, stop = g.Start, g.Stop
		}
		before := runtime.NumGoroutine()
		if err := start(context.Background()); err != nil {
			t.Fatal(err)
		}
		added := runtime.NumGoroutine() - before
		stop()
		return added
	}
	for _, group := range []bool{false, true} {
		if n := startStop(Config{}, group); n > 0 {
			t.Errorf("group=%v: a virtual Start added %d goroutines", group, n)
		}
		// Other tests' goroutines may exit meanwhile: one attempt in a few
		// must see the transmitter.
		paced := 0
		for try := 0; try < 5 && paced < 1; try++ {
			paced = startStop(Config{BitsPerSecond: 1_024_000}, group)
		}
		if paced < 1 {
			t.Errorf("group=%v: a paced Start added no transmit goroutine", group)
		}
	}
}

// TestIdleClockStandsStill: with nobody pulling, a virtual clock does not
// move, and a new subscription tunes in where it stands.
func TestIdleClockStandsStill(t *testing.T) {
	st := startStation(t, testCycle(40), Config{Start: 7})
	sub, err := st.SubscribeExact(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sub.At(sub.Start() + 25)
	sub.Close()
	pos := st.Pos()
	time.Sleep(10 * time.Millisecond)
	if got := st.Pos(); got != pos {
		t.Fatalf("idle clock moved %d -> %d", pos, got)
	}
	next, err := st.Subscribe(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if next.Start() != pos {
		t.Fatalf("tuned in at %d, the clock stands at %d", next.Start(), pos)
	}
}

// TestVirtualReceptionAllocatesNothing: on a virtual clock an exact
// subscriber's reception is a computation, with nothing allocated, and a
// subscription carries no transmission buffer.
func TestVirtualReceptionAllocatesNothing(t *testing.T) {
	st := startStation(t, testCycle(50), Config{})
	sub, err := st.SubscribeExact(0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.ch != nil {
		t.Fatal("a virtual-clock subscription has a transmission channel")
	}
	pos := sub.Start()
	allocs := testing.AllocsPerRun(200, func() {
		if pos%7 == 0 {
			sub.Prefetch(pos, 5)
		}
		sub.At(pos)
		pos += 1 + pos%3
	})
	if allocs != 0 {
		t.Fatalf("exact virtual-clock At allocates %v times per reception", allocs)
	}
}

// TestConcurrentListenersMatchReplay runs every kind of listener on one
// virtual group clock at once, under -race: exact sessions that sleep and
// prefetch on member 0, a plain subscription streaming member 1 through a
// 4-slot allowance, and a radio hopping across all four members, with a
// group swap midway (made by the streaming listener halfway through its
// stream). Every reception must equal an offline replay of the version on
// the air at its tick, under the listener's own loss pattern.
func TestConcurrentListenersMatchReplay(t *testing.T) {
	const k, loss = 4, 0.1
	cycles := [3][]*broadcast.Cycle{} // by version
	members := make([]*Station, k)
	for c := range members {
		cycles[1] = append(cycles[1], versionedCycle(61+6*c, 1))
		cycles[2] = append(cycles[2], versionedCycle(64+5*c, 2))
		st, err := New(cycles[1][c], Config{Buffer: 4})
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

	type reception struct {
		member, tick int
		seed         int64
		p            packet.Packet
		ok           bool
	}
	var (
		mu    sync.Mutex
		heard []reception
		wg    sync.WaitGroup
	)
	listen := func(sub *Sub, member, tick int, seed int64) {
		p, ok := sub.At(tick)
		mu.Lock()
		heard = append(heard, reception{member, tick, seed, p, ok})
		mu.Unlock()
	}
	subscribe := func(member int, exact bool, seed int64) *Sub {
		sub, err := members[member].subscribe(loss, seed, exact)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	for id := int64(1); id <= 3; id++ { // sleeping, prefetching sessions
		sub := subscribe(0, true, id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			rng := rand.New(rand.NewSource(id))
			tick := sub.Start()
			for q := 0; q < 60; q++ {
				tick += rng.Intn(3 * 61)
				n := 1 + rng.Intn(20)
				sub.Prefetch(tick, n)
				for i := 0; i < n; i++ {
					listen(sub, 0, tick, id)
					tick++
				}
			}
		}()
	}
	stream := subscribe(1, false, 10) // a plain streaming subscription
	swapped := make(chan (<-chan int), 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stream.Close()
		for i := 0; i < 3000; i++ {
			if i == 1500 {
				ch, err := g.Swap(cycles[2])
				if err != nil {
					t.Error(err)
				}
				swapped <- ch
			}
			listen(stream, 1, stream.Start()+i, 10)
		}
	}()
	wg.Add(1)
	go func() { // a K=4 hopping radio
		defer wg.Done()
		rng := rand.New(rand.NewSource(20))
		subs := make([]*Sub, k)
		tick := 0
		for c := range subs {
			subs[c] = subscribe(c, true, int64(20+c))
			defer subs[c].Close()
			tick = max(tick, subs[c].Start())
		}
		tick += 2
		cur := 0
		for c := 1; c < k; c++ {
			subs[c].Park()
		}
		for h := 0; h < 1500; h++ {
			tick += rng.Intn(4)
			if to := rng.Intn(k); to != cur {
				tick += 2
				subs[to].WakeAt(tick)
				subs[cur].Park()
				cur = to
			}
			listen(subs[cur], cur, tick, int64(20+cur))
			tick++
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("listeners still waiting after 60s")
	}
	swapTick := awaitSwap(t, <-swapped, time.Second)

	heardVersion := [3]int{}
	for _, r := range heard {
		v := 1
		if r.tick >= swapTick {
			v = 2
		}
		heardVersion[v]++
		c := cycles[v][r.member]
		want := c.Packets[r.tick%c.Len()]
		if lost := broadcast.Lost(uint64(r.seed), r.tick, loss); r.ok == lost {
			t.Fatalf("member %d tick %d seed %d: ok=%v, the replay's loss pattern says lost=%v", r.member, r.tick, r.seed, r.ok, lost)
		}
		if r.p.Kind != want.Kind || r.ok && (r.p.Version != c.Version || string(r.p.Payload) != string(want.Payload)) {
			t.Fatalf("member %d tick %d (swap at %d): got version %d %v/%v, replay version %d %v/%v",
				r.member, r.tick, swapTick, r.p.Version, r.p.Kind, r.p.Payload, c.Version, want.Kind, want.Payload)
		}
	}
	if heardVersion[1] < 1000 || heardVersion[2] < 1000 {
		t.Fatalf("receptions by version %v: the swap did not land midway", heardVersion[1:])
	}
}

// TestAllowancesBoundTheClock pins what each kind of subscription lets a
// virtual clock pass, asked through Ready (which moves nothing): an exact
// subscription its want and its declared window, a plain one Buffer
// positions past its want, a parked one everything.
func TestAllowancesBoundTheClock(t *testing.T) {
	st := startStation(t, testCycle(90), Config{Buffer: 8})
	exact, err := st.SubscribeExact(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	plain, err := st.Subscribe(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	s := exact.Start()
	check := func(sub *Sub, abs int, want bool, what string) {
		t.Helper()
		if got := sub.Ready(abs); got != want {
			t.Errorf("%s: Ready(start+%d) = %v, want %v", what, abs-s, got, want)
		}
	}
	check(plain, s, true, "exact at its want")
	check(plain, s+1, false, "exact at its want")
	exact.Prefetch(s, 5)
	check(plain, s+4, true, "exact with a 5-position window")
	check(plain, s+5, false, "exact with a 5-position window")
	exact.Park()
	check(plain, s+1000, true, "parked")
	check(exact, s+7, true, "plain, Buffer 8")
	check(exact, s+8, false, "plain, Buffer 8")
	if st.Pos() != s {
		t.Fatalf("Ready moved the clock %d -> %d", s, st.Pos())
	}
}
