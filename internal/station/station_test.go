package station

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/packet"
)

// testCycle builds a small cycle of n data packets whose payloads encode
// their own cycle position, plus one index packet at the front.
func testCycle(n int) *broadcast.Cycle {
	a := broadcast.NewAssembler()
	a.Append(packet.KindIndex, -1, "index", []packet.Packet{{Kind: packet.KindIndex}})
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		pkts[i] = packet.Packet{Kind: packet.KindData, Payload: []byte{byte(i), byte(i >> 8)}}
	}
	a.Append(packet.KindData, 0, "data", pkts)
	return a.Finish()
}

func startStation(t *testing.T, cycle *broadcast.Cycle, cfg Config) *Station {
	t.Helper()
	st, err := New(cycle, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := st.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(st.Stop)
	return st
}

// TestSubscribeReceivesFromTuneIn checks that a subscription delivers the
// exact cycle sequence from its tune-in position, wrapping around.
func TestSubscribeReceivesFromTuneIn(t *testing.T) {
	cycle := testCycle(63)
	st := startStation(t, cycle, Config{})
	sub, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	start := sub.Start()
	for i := 0; i < 2*cycle.Len(); i++ {
		abs := start + i
		got, ok := sub.At(abs)
		if !ok {
			t.Fatalf("position %d reported lost on a lossless subscription", abs)
		}
		want := cycle.Packets[abs%cycle.Len()]
		if got.Kind != want.Kind || string(got.Payload) != string(want.Payload) {
			t.Fatalf("position %d: got %v/%v, want %v/%v", abs, got.Kind, got.Payload, want.Kind, want.Payload)
		}
	}
}

// TestMidCycleTuneIn checks that tune-in happens at the station's live
// position, not at the cycle start.
func TestMidCycleTuneIn(t *testing.T) {
	cycle := testCycle(40)
	st := startStation(t, cycle, Config{})
	// Let the air advance past position 0.
	first, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		first.At(first.Start() + i)
	}
	first.Close()
	sub, err := st.Subscribe(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Start() < 100 {
		t.Errorf("second tune-in at %d, want the live position (>= 100)", sub.Start())
	}
	if p, ok := sub.At(sub.Start()); !ok || p.Kind != cycle.Packets[sub.Start()%cycle.Len()].Kind {
		t.Errorf("first packet after mid-cycle tune-in wrong: %v ok=%v", p, ok)
	}
}

// TestSleepSkipsDelivery checks that a tuner sleeping far ahead does not
// have to drain the skipped positions packet by packet — and that the
// station does not step through them either: its clock lands on the
// slept-to position in one jump.
func TestSleepSkipsDelivery(t *testing.T) {
	cycle := testCycle(50)
	st := startStation(t, cycle, Config{})
	sub, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	tuner := broadcast.NewFeedTuner(sub, sub.Start())
	tuner.Listen()
	skipped := obsSkipped.Value()
	// Sleep three cycles ahead. With the sleeping radio modelled (want
	// position), this must not deadlock.
	target := tuner.Pos() + 3*cycle.Len()
	tuner.SleepTo(target)
	p, ok := tuner.Listen()
	if !ok {
		t.Fatal("lossless listen after sleep reported lost")
	}
	want := cycle.Packets[target%cycle.Len()]
	if p.Kind != want.Kind || string(p.Payload) != string(want.Payload) {
		t.Fatalf("after sleep got %v/%v, want %v/%v", p.Kind, p.Payload, want.Kind, want.Payload)
	}
	// The clock stops just past each position the listener receives, so it
	// passed everything in between without a step.
	if pos := st.Pos(); pos != target+1 {
		t.Errorf("station at %d after the listener slept to %d, want just past it", pos, target)
	}
	if got := obsSkipped.Value() - skipped; got < int64(3*cycle.Len()-1) {
		t.Errorf("station skipped %d positions of a %d-position sleep, stepped through the rest", got, 3*cycle.Len())
	}
}

// TestPerSubscriberLossMatchesChannel checks the determinism invariant at
// the feed level: a subscription with (loss, seed) observes exactly the
// same loss pattern as a broadcast.Channel with the same (loss, seed).
func TestPerSubscriberLossMatchesChannel(t *testing.T) {
	cycle := testCycle(30)
	const loss, seed = 0.2, int64(77)
	ch, err := broadcast.NewChannel(cycle, loss, seed)
	if err != nil {
		t.Fatal(err)
	}
	st := startStation(t, cycle, Config{})
	sub, err := st.Subscribe(loss, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	lost := 0
	for i := 0; i < 4*cycle.Len(); i++ {
		abs := sub.Start() + i
		live, liveOK := sub.At(abs)
		replay, replayOK := ch.At(abs)
		if liveOK != replayOK {
			t.Fatalf("position %d: live ok=%v, channel ok=%v", abs, liveOK, replayOK)
		}
		if live.Kind != replay.Kind {
			t.Fatalf("position %d: live kind %v, channel kind %v", abs, live.Kind, replay.Kind)
		}
		if !liveOK {
			lost++
		}
	}
	if lost == 0 {
		t.Error("20% loss produced no lost packets in 120 positions")
	}
}

// TestTwoSubscribersIndependentLoss checks that loss is per-subscriber: two
// listeners with different seeds disagree somewhere on the same air.
func TestTwoSubscribersIndependentLoss(t *testing.T) {
	cycle := testCycle(30)
	st := startStation(t, cycle, Config{})
	a, err := st.Subscribe(0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := st.Subscribe(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := max(a.Start(), b.Start())
	// One goroutine reads both: each declares its run first, as an exact
	// client does, so neither waits for the other to pull the clock.
	a.Prefetch(start, 3*cycle.Len())
	b.Prefetch(start, 3*cycle.Len())
	differ := false
	for i := 0; i < 3*cycle.Len(); i++ {
		_, okA := a.At(start + i)
		_, okB := b.At(start + i)
		if okA != okB {
			differ = true
		}
	}
	if !differ {
		t.Error("two subscribers with different seeds observed identical loss")
	}
}

// TestUnsubscribeUnderBackpressure checks that closing a subscription that
// stopped listening unblocks the station for the remaining listeners.
func TestUnsubscribeUnderBackpressure(t *testing.T) {
	cycle := testCycle(20)
	st := startStation(t, cycle, Config{})
	stall, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	live, err := st.Subscribe(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// The stalled subscriber holds the clock at its want; close it from
	// here: the live subscriber must keep receiving.
	time.Sleep(10 * time.Millisecond)
	stall.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			live.At(live.Start() + i)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("station stayed blocked on a closed subscriber")
	}
}

// TestContextCancelClosesSubscriptions checks that cancelling the station's
// context ends transmission and degrades open feeds to replay, so a reader
// still terminates with correct packets.
func TestContextCancelClosesSubscriptions(t *testing.T) {
	cycle := testCycle(25)
	st, err := New(cycle, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := st.Start(ctx); err != nil {
		t.Fatal(err)
	}
	sub, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.At(sub.Start())
	cancel()
	st.Stop() // waits for the transmit loop to exit

	if _, err := st.Subscribe(0, 2); err == nil {
		t.Error("Subscribe succeeded on a stopped station")
	}
	// The open feed keeps answering (replay mode), identically to a channel.
	ch, _ := broadcast.NewChannel(cycle, 0, 1)
	for i := 1; i < 2*cycle.Len(); i++ {
		abs := sub.Start() + i
		got, ok := sub.At(abs)
		want, wantOK := ch.At(abs)
		if ok != wantOK || got.Kind != want.Kind {
			t.Fatalf("replay position %d: got %v/%v, want %v/%v", abs, got.Kind, ok, want.Kind, wantOK)
		}
	}
}

// TestRestart checks Stop then Start works and subscriptions resume.
func TestRestart(t *testing.T) {
	cycle := testCycle(10)
	st, err := New(cycle, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(context.Background()); err == nil {
		t.Error("double Start succeeded")
	}
	st.Stop()
	if err := st.Start(context.Background()); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer st.Stop()
	sub, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatalf("Subscribe after restart: %v", err)
	}
	defer sub.Close()
	if _, ok := sub.At(sub.Start()); !ok {
		t.Error("lossless packet lost after restart")
	}
}

// TestPacedClockRate checks that a paced station approximates the
// configured bit rate rather than transmitting at full speed.
func TestPacedClockRate(t *testing.T) {
	cycle := testCycle(200)
	// 100 packets with 1024-bit packets at 1.024 Mbit/s → ~100 ms of air.
	st := startStation(t, cycle, Config{BitsPerSecond: 1_024_000, Buffer: 512})
	sub, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	begin := time.Now()
	for i := 0; i < 100; i++ {
		sub.At(sub.Start() + i)
	}
	elapsed := time.Since(begin)
	if elapsed < 50*time.Millisecond {
		t.Errorf("100 paced packets took %v, want ≈100ms (station not pacing)", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("100 paced packets took %v, pacing far too slow", elapsed)
	}
}

// TestReadyAnswersForAt pins Sub.Ready, the question a wire pump asks before
// every At: true exactly when At would not wait for the station. Positions
// the air has passed are not an answer for a later one — At(far) still
// waits for far — so Ready must look at positions, not at how much has
// aired; and an off-air subscription replays, so it is always ready.
func TestReadyAnswersForAt(t *testing.T) {
	cycle := testCycle(63)
	check := func(sub *Sub, abs int) {
		t.Helper()
		got, ok := sub.At(abs)
		want := cycle.Packets[abs%cycle.Len()]
		if !ok || string(got.Payload) != string(want.Payload) {
			t.Fatalf("position %d after Ready: got %v ok=%v, want %v", abs, got.Payload, ok, want.Payload)
		}
	}
	aired := func(t *testing.T, st *Station, pos int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); st.Pos() < pos; {
			if time.Now().After(deadline) {
				t.Fatalf("station at %d, want it past %d", st.Pos(), pos)
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("virtual", func(t *testing.T) {
		st := startStation(t, cycle, Config{})
		sub, err := st.Subscribe(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		start := sub.Start()
		if !sub.Ready(start) || !sub.Ready(start+3) {
			t.Fatal("Ready false with no other subscription holding the clock")
		}
		check(sub, start+3) // Ready slept over start..start+2, like At would
		st.Stop()
		if !sub.Ready(start + 1000) {
			t.Fatal("Ready false off the air, where At replays without waiting")
		}
		check(sub, start+1000)
	})

	t.Run("paced", func(t *testing.T) {
		// 1 ms a packet: the far position below is 0.3 s of air away.
		st := startStation(t, cycle, Config{BitsPerSecond: 1_024_000, Buffer: 64})
		sub, err := st.Subscribe(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		far := sub.Start() + 300
		aired(t, st, sub.Start()+3)
		begin := time.Now()
		if sub.Ready(far) {
			t.Fatal("Ready true with nothing but earlier positions aired")
		}
		if took := time.Since(begin); took > 100*time.Millisecond {
			t.Fatalf("Ready took %v: it waited for the air", took)
		}
		check(sub, far) // At, unlike Ready, waits for far to air
	})
}

// TestMissedSubsetOfLost pins the drop-accounting invariant the fleet
// report subtracts on: Sub.Missed() counts exactly the backpressure drops
// the listener experienced as corrupted receptions, never drops it slept
// over. On a lossless paced subscription every corrupted reception IS a
// backpressure miss, so missed must equal the listener's lost count — and
// in particular can never exceed it, even though the station also drops
// packets inside stretches the listener skips without listening.
func TestMissedSubsetOfLost(t *testing.T) {
	cycle := testCycle(64)
	// ~125 µs per packet, a 2-packet buffer: any listener pause overruns it.
	st := startStation(t, cycle, Config{BitsPerSecond: 8_192_000, Buffer: 2})
	sub, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	lost := 0
	pos := sub.Start()
	listen := func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := sub.At(pos); !ok {
				lost++
			}
			pos++
		}
	}
	// Phase 1: pause (the station overruns the 2-packet buffer and drops),
	// then keep listening consecutively — the dropped positions are asked
	// for, served as corrupted receptions, and so count in both lost and
	// Missed(). Pacing depends on the scheduler, so retry until at least
	// one miss lands.
	deadline := time.Now().Add(5 * time.Second)
	for sub.Missed() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		listen(32)
	}
	if sub.Missed() == 0 {
		t.Fatal("no backpressure miss after 5s of buffer overruns; invariant not exercised")
	}
	// Phase 2: pause again, but skip clear past the dropped stretch before
	// listening — the radio was asleep, those drops never reach it, and
	// they must not surface in Missed() (that is what would push missed
	// past lost).
	for round := 0; round < 5; round++ {
		time.Sleep(2 * time.Millisecond)
		pos += 2 * cycle.Len()
		listen(8)
	}
	missed := sub.Missed()
	if missed > lost {
		t.Fatalf("Missed() = %d exceeds listener-observed lost %d (missed must be a subset of lost)", missed, lost)
	}
	if missed != lost {
		t.Fatalf("lossless subscription: Missed() = %d, listener lost %d (every corrupted reception is a backpressure miss)", missed, lost)
	}
	if missed == 0 {
		t.Fatal("scenario produced no backpressure misses; invariant not exercised")
	}
}

// TestManyConcurrentSubscribers runs 120 concurrent lossy listeners on one
// station under the race detector, each checking its private air against an
// offline channel with the same seed.
func TestManyConcurrentSubscribers(t *testing.T) {
	cycle := testCycle(64)
	st := startStation(t, cycle, Config{})
	const listeners = 120
	var wg sync.WaitGroup
	errs := make(chan error, listeners)
	for i := 0; i < listeners; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			loss := 0.0
			if id%2 == 1 {
				loss = 0.1
			}
			seed := int64(id)
			sub, err := st.Subscribe(loss, seed)
			if err != nil {
				errs <- err
				return
			}
			defer sub.Close()
			ch, err := broadcast.NewChannel(cycle, loss, seed)
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 2*cycle.Len(); j++ {
				abs := sub.Start() + j
				live, liveOK := sub.At(abs)
				replay, replayOK := ch.At(abs)
				if liveOK != replayOK || live.Kind != replay.Kind {
					errs <- fmt.Errorf("subscriber %d: mismatch vs offline channel at position %d", id, abs)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
