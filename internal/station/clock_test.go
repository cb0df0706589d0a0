package station

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
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
	sub, err := st.Subscribe(0, 1)
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
	sub, err := st.Subscribe(0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	tuner := broadcast.NewFeedTuner(sub, sub.Start())
	listened := 0
	for doze := 0; doze < 6; doze++ {
		tuner.SleepTo(tuner.Pos() + cycle.Len()/3)
		tuner.ListenSpan(20, func(int, packet.Packet, bool) { listened++ })
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
// leave that radio waiting for good (a skipped want shows as a hang, never
// as a miss, which a virtual clock must not produce); received content is
// checked as well.
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
				sub, err := st.Subscribe(0, int64(id))
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

// TestVirtualStartAddsNoGoroutine: a station or group is a clock, not a
// transmitter — starting one, virtual or paced, leaves the goroutine count
// alone.
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
		if n := startStop(Config{BitsPerSecond: 1_024_000}, group); n > 0 {
			t.Errorf("group=%v: a paced Start added %d goroutines", group, n)
		}
	}
}

// TestIdleClockStandsStill: with nobody pulling, a virtual clock does not
// move, and a new subscription tunes in where it stands.
func TestIdleClockStandsStill(t *testing.T) {
	st := startStation(t, testCycle(40), Config{Start: 7})
	sub, err := st.Subscribe(0, 1)
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

// allocClocks are the clocks the reception pins run on: virtual, and paced
// at 20 µs a packet with a Buffer no scheduling hiccup outruns, so a
// reception ahead of the air sleeps until it has aired, and none misses.
var allocClocks = []Config{{}, {BitsPerSecond: 51_200_000, Buffer: 1 << 16}}

// TestVirtualReceptionAllocatesNothing: an exact subscriber's reception is
// a computation, with nothing allocated: on a virtual clock, and on a paced
// one, where the listener runs ahead of the air and sleeps until each
// position has aired.
func TestVirtualReceptionAllocatesNothing(t *testing.T) {
	for _, cfg := range allocClocks {
		st := startStation(t, testCycle(50), cfg)
		sub, err := st.Subscribe(0.1, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		pos := sub.Start()
		allocs := testing.AllocsPerRun(200, func() {
			if pos%7 == 0 {
				sub.Prefetch(pos, 5)
			}
			sub.At(pos)
			pos += 1 + pos%3
		})
		if allocs != 0 {
			t.Fatalf("exact At at %d bit/s allocates %v times per reception", cfg.BitsPerSecond, allocs)
		}
		if sub.Missed() != 0 {
			t.Fatalf("%d bit/s: the listener missed %d positions", cfg.BitsPerSecond, sub.Missed())
		}
	}
}

// TestVirtualSpanAllocatesNothing: a run reception is one clock move, or
// one sleep until the run has aired, and a view of the epoch's cycle, with
// nothing allocated.
func TestVirtualSpanAllocatesNothing(t *testing.T) {
	for _, cfg := range allocClocks {
		st := startStation(t, testCycle(50), cfg)
		sub, err := st.Subscribe(0.1, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		pos := sub.Start()
		allocs := testing.AllocsPerRun(200, func() {
			pkts, _ := sub.Span(pos, 1+pos%70)
			pos += len(pkts) + pos%3
		})
		if allocs != 0 {
			t.Fatalf("exact Span at %d bit/s allocates %v times per run", cfg.BitsPerSecond, allocs)
		}
		if sub.Missed() != 0 {
			t.Fatalf("%d bit/s: the listener missed %d positions", cfg.BitsPerSecond, sub.Missed())
		}
	}
}

// TestPacedSpanMatchesAt pins a paced Span to At: once positions have aired
// one view serves them all, and every view's packets and loss mask equal At
// over the same positions on a twin subscription (same loss pattern). Views
// taken at the air's edge while a swap is pending never cross the swap, and
// the receptions that reach it make it.
func TestPacedSpanMatchesAt(t *testing.T) {
	c1, c2 := versionedCycle(400, 1), versionedCycle(300, 2)
	// 50 µs a packet, and a Buffer of several cycles: nothing is missed.
	st := startStation(t, c1, Config{BitsPerSecond: 20_480_000, Buffer: 4096})
	const loss, seed = 0.2, 5
	span, err := st.Subscribe(loss, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer span.Close()
	at, err := st.Subscribe(loss, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer at.Close()
	late, err := st.Subscribe(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	type view struct{ abs, n int }
	var views []view
	receive := func(abs, n int) int {
		t.Helper()
		pkts, lost := span.Span(abs, n)
		for i, p := range pkts {
			q, ok := at.At(abs + i)
			if ok == (lost&(1<<i) != 0) || p.Kind != q.Kind || ok && (p.Version != q.Version || string(p.Payload) != string(q.Payload)) {
				t.Fatalf("position %d: Span gave version %d %v lost=%v, At version %d %v ok=%v",
					abs+i, p.Version, p.Payload, lost&(1<<i) != 0, q.Version, q.Payload, ok)
			}
		}
		views = append(views, view{abs, len(pkts)})
		return len(pkts)
	}

	abs := span.Start()
	if l := c1.Len(); abs%l > l-40 {
		abs += l - abs%l
	}
	for st.Pos() < abs+40 {
		time.Sleep(time.Millisecond)
	}
	if k := receive(abs, 40); k < 2 {
		t.Fatalf("a view of 40 aired positions served %d", k)
	}

	swapped, err := st.Swap(c2)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the swap's timer off: the receptions that reach the boundary
	// must make the swap themselves.
	st.clk.mu.Lock()
	st.clk.swapTimer.Stop()
	st.clk.mu.Unlock()
	abs = st.Pos()
	for end := abs + 3*c1.Len(); abs < end; {
		abs += receive(abs, broadcast.MaxSpan)
	}
	swapPos := awaitSwap(t, swapped, time.Second)
	for _, v := range views {
		if v.abs < swapPos && swapPos < v.abs+v.n {
			t.Fatalf("view [%d, %d) crosses the swap at %d", v.abs, v.abs+v.n, swapPos)
		}
	}
	// A listener behind the air asks across the swap after it has aired:
	// the view ends at the swap, and the next one is all new version.
	for st.Pos() < swapPos+40 {
		time.Sleep(time.Millisecond)
	}
	rest := min(40, c2.Len()-swapPos%c2.Len()) // the new cycle's phase at the swap
	for _, want := range []struct{ abs, n, version int }{{swapPos - 5, 5, 1}, {swapPos, rest, 2}} {
		pkts, _ := late.Span(want.abs, 40)
		if len(pkts) != want.n {
			t.Fatalf("a view of 40 from %d (swap at %d) served %d", want.abs, swapPos, len(pkts))
		}
		for i, p := range pkts {
			if int(p.Version) != want.version {
				t.Fatalf("position %d (swap at %d): version %d, want %d", want.abs+i, swapPos, p.Version, want.version)
			}
		}
	}
	if missed := span.Missed() + at.Missed(); missed != 0 {
		t.Fatalf("%d positions missed", missed)
	}
}

// TestConcurrentSpansMatchReplay runs span listeners on one virtual group
// clock under -race: sessions on two members receive random runs by Span,
// waiting on each other and on a subscription that streams a third member
// without declaring a window and makes a group swap midway, so views are
// cut where another listener holds the clock and at the swap. Every
// position of every view must equal an offline replay of the version on
// the air at its tick, under the listener's own loss pattern.
func TestConcurrentSpansMatchReplay(t *testing.T) {
	const k, loss = 3, 0.1
	cycles := [3][]*broadcast.Cycle{} // by version
	members := make([]*Station, k)
	for c := range members {
		cycles[1] = append(cycles[1], versionedCycle(57+6*c, 1))
		cycles[2] = append(cycles[2], versionedCycle(66+5*c, 2))
		st, err := New(cycles[1][c], Config{})
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

	type view struct {
		member, tick int
		seed         int64
		pkts         []packet.Packet
		lost         uint64
	}
	var (
		mu    sync.Mutex
		views []view
		wg    sync.WaitGroup
	)
	for id := int64(1); id <= 4; id++ {
		member := int(id) % 2
		sub, err := members[member].Subscribe(loss, id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			rng := rand.New(rand.NewSource(id))
			tick := sub.Start()
			for q := 0; q < 80; q++ {
				tick += rng.Intn(2 * 57)
				for n := 1 + rng.Intn(150); n > 0; {
					pkts, lost := sub.Span(tick, n)
					mu.Lock()
					views = append(views, view{member, tick, id, slices.Clone(pkts), lost})
					mu.Unlock()
					tick += len(pkts)
					n -= len(pkts)
				}
			}
		}()
	}
	stream, err := members[2].Subscribe(loss, 10)
	if err != nil {
		t.Fatal(err)
	}
	swapped := make(chan (<-chan int), 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stream.Close()
		for i := 0; i < 4000; i++ {
			if i == 2000 {
				ch, err := g.Swap(cycles[2])
				if err != nil {
					t.Error(err)
				}
				swapped <- ch
			}
			stream.At(stream.Start() + i)
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
	version := func(tick int) int {
		if tick >= swapTick {
			return 2
		}
		return 1
	}
	for _, v := range views {
		if len(v.pkts) == 0 || len(v.pkts) > broadcast.MaxSpan {
			t.Fatalf("member %d tick %d: a view of %d positions", v.member, v.tick, len(v.pkts))
		}
		if version(v.tick) != version(v.tick+len(v.pkts)-1) {
			t.Fatalf("member %d: view [%d, %d) crosses the swap at %d", v.member, v.tick, v.tick+len(v.pkts), swapTick)
		}
		for i, p := range v.pkts {
			tick := v.tick + i
			ver := version(tick)
			heardVersion[ver]++
			c := cycles[ver][v.member]
			want := c.Packets[tick%c.Len()]
			if lost := v.lost&(1<<i) != 0; lost != broadcast.Lost(uint64(v.seed), tick, loss) {
				t.Fatalf("member %d tick %d seed %d: lost=%v, the replay's loss pattern says %v", v.member, tick, v.seed, lost, !lost)
			}
			if p.Kind != want.Kind || p.Version != c.Version || string(p.Payload) != string(want.Payload) {
				t.Fatalf("member %d tick %d (swap at %d): got version %d %v/%v, replay version %d %v/%v",
					v.member, tick, swapTick, p.Version, p.Kind, p.Payload, c.Version, want.Kind, want.Payload)
			}
		}
	}
	if heardVersion[1] < 1000 || heardVersion[2] < 1000 {
		t.Fatalf("receptions by version %v: the swap did not land midway", heardVersion[1:])
	}
}

// TestConcurrentListenersMatchReplay runs every kind of listener on one
// virtual group clock at once, under -race: sessions that sleep and
// prefetch on member 0, a subscription streaming member 1 one position at
// a time without declaring a window, and a radio hopping across all four
// members, with a group swap midway (made by the streaming listener halfway
// through its stream). Every reception must equal an offline replay of the
// version on the air at its tick, under the listener's own loss pattern.
func TestConcurrentListenersMatchReplay(t *testing.T) {
	const k, loss = 4, 0.1
	cycles := [3][]*broadcast.Cycle{} // by version
	members := make([]*Station, k)
	for c := range members {
		cycles[1] = append(cycles[1], versionedCycle(61+6*c, 1))
		cycles[2] = append(cycles[2], versionedCycle(64+5*c, 2))
		st, err := New(cycles[1][c], Config{})
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
	subscribe := func(member int, seed int64) *Sub {
		sub, err := members[member].Subscribe(loss, seed)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	for id := int64(1); id <= 3; id++ { // sleeping, prefetching sessions
		sub := subscribe(0, id)
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
	stream := subscribe(1, 10) // a streaming subscription that declares nothing
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
			subs[c] = subscribe(c, int64(20+c))
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

// TestAllowancesBoundTheClock pins what a subscription lets a virtual clock
// pass, asked through Ready (which moves nothing): its want and its declared
// window, or everything once parked. A wire pump's declared window is its
// remote's credit window: granted credit to limit, it lets the clock pass
// limit-1 and no further, however far its want lags.
func TestAllowancesBoundTheClock(t *testing.T) {
	st := startStation(t, testCycle(90), Config{})
	session, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	other, err := st.Subscribe(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	s := session.Start()
	check := func(sub *Sub, abs int, want bool, what string) {
		t.Helper()
		if got := sub.Ready(abs); got != want {
			t.Errorf("%s: Ready(start+%d) = %v, want %v", what, abs-s, got, want)
		}
	}
	check(other, s, true, "at its want")
	check(other, s+1, false, "at its want")
	session.Prefetch(s, 5)
	check(other, s+4, true, "with a 5-position window")
	check(other, s+5, false, "with a 5-position window")
	session.Park()
	check(other, s+1000, true, "parked")
	// A pump granted credit [s, s+40) declares it; its want stays at s.
	pump, err := st.Subscribe(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pump.Close()
	check(other, s+1, false, "a pump at its tune-in")
	pump.Prefetch(s, 40)
	check(other, s+39, true, "a pump's credit window")
	check(other, s+40, false, "a pump's credit window")
	if st.Pos() != s {
		t.Fatalf("Ready moved the clock %d -> %d", s, st.Pos())
	}
}
