package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/chaos"
	"repro/internal/conformance"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/station"
)

// A data datagram is a run of frames (DESIGN.md §11). These tests pin what
// that changed: when the pump may hold a frame back (never across a wait),
// and what damage to one datagram costs the listener (its own frames, and
// only the damaged ones when the boundaries survive).

// dataPos returns the position a data frame's body carries.
func dataPos(t *testing.T, body []byte) int {
	t.Helper()
	f, err := packet.DecodeData(body)
	if err != nil {
		t.Fatalf("bad data frame from broadcaster: %v", err)
	}
	return int(f.Pos)
}

// rawHello completes a handshake by hand with the given credit window.
func rawHello(t *testing.T, c *rawClient, window uint32) welcome {
	t.Helper()
	c.send(appendHello(nil, window))
	ftype, body, ok := c.read(2 * time.Second)
	if !ok || ftype != frameWelcome {
		t.Fatalf("no welcome (type %#x ok %v)", ftype, ok)
	}
	w, err := parseWelcome(body)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPacedPumpSendsEachFrameAlone: on a paced station a packet exists once
// per airtime, so the pump — which never waits while it holds a frame —
// writes every frame the moment it airs: one frame per datagram, and frame p
// is at the client before the station transmits p+1.
func TestPacedPumpSendsEachFrameAlone(t *testing.T) {
	g := conformance.Network(t, 200, 300, 5)
	srv := testServers(t, g)[1]
	// 10 ms of air per packet: generous against scheduling jitter.
	st, err := station.New(srv.Cycle(), station.Config{BitsPerSecond: 102_400})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Stop)
	b := serve(t, st, BroadcasterOptions{})

	c := rawDial(t, b)
	w := rawHello(t, c, 64)
	c.datagrams, c.frames = 0, 0
	for i := 0; i < 20; i++ {
		ftype, body, ok := c.read(2 * time.Second)
		if !ok || ftype != packet.FrameData {
			t.Fatalf("frame %d: type %#x ok %v", i, ftype, ok)
		}
		pos := dataPos(t, body)
		if pos != int(w.Start)+i {
			t.Fatalf("frame %d carries position %d, want %d", i, pos, int(w.Start)+i)
		}
		if air := st.Pos(); air > pos+1 {
			t.Fatalf("position %d reached the client only after the station moved on to %d", pos, air)
		}
	}
	if c.datagrams != c.frames {
		t.Fatalf("%d frames in %d datagrams on a paced station, want one each", c.frames, c.datagrams)
	}
	c.send(appendBye(nil))
}

// TestCreditExhaustionFlushes: a receiver that grants a window which is not
// a whole number of datagrams, and then nothing, still gets every position
// below its limit — the pump writes what it holds before it parks on credit
// — and not one position beyond it.
func TestCreditExhaustionFlushes(t *testing.T) {
	g := conformance.Network(t, 200, 300, 7)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})

	c := rawDial(t, b)
	const window = 13 // one full datagram and a part of the next
	w := rawHello(t, c, window)
	next := int(w.Start)
	drain := func(limit int) {
		t.Helper()
		for {
			ftype, body, ok := c.read(300 * time.Millisecond)
			if !ok {
				break
			}
			if ftype != packet.FrameData {
				continue
			}
			if pos := dataPos(t, body); pos != next || pos >= limit {
				t.Fatalf("got position %d, want %d (limit %d)", pos, next, limit)
			}
			next++
		}
		if next != limit {
			t.Fatalf("stream parked at %d with credit to %d: frames held back across the wait", next, limit)
		}
	}
	drain(int(w.Start) + window)
	// More credit, again ending mid-datagram.
	c.send(appendWant(nil, uint64(next), uint64(next+5)))
	drain(next + 5)
	if c.datagrams >= c.frames {
		t.Fatalf("%d frames in %d datagrams: the virtual clock never filled a datagram", c.frames, c.datagrams)
	}
	c.send(appendBye(nil))
	waitRemotes(t, b, 0)
}

// TestPumpHoldsClockAtCredit: a remote's pump declares its credit window on
// an exact subscription, so a remote that stops granting credit holds a
// virtual station at exactly its granted limit, as an in-process session
// holds it at its declared window: the station stands at the limit, and an
// in-process listener tuned in there waits until the remote's bye releases
// the clock.
func TestPumpHoldsClockAtCredit(t *testing.T) {
	g := conformance.Network(t, 200, 300, 11)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})

	c := rawDial(t, b)
	const window = 40
	w := rawHello(t, c, window)
	limit := int(w.Start) + window
	for next := int(w.Start); next < limit; {
		ftype, body, ok := c.read(2 * time.Second)
		if !ok {
			t.Fatalf("stream stopped at %d with credit to %d", next, limit)
		}
		if ftype != packet.FrameData {
			continue
		}
		if pos := dataPos(t, body); pos != next {
			t.Fatalf("got position %d, want %d", pos, next)
		}
		next++
	}
	if _, _, ok := c.read(100 * time.Millisecond); ok {
		t.Fatal("a frame past the credit limit")
	}
	if pos := st.Pos(); pos != limit {
		t.Fatalf("station at %d, want it held at the credit limit %d", pos, limit)
	}

	sub, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Ready(limit) || sub.Ready(limit+1000) {
		t.Fatalf("an in-process listener is ready past the credit limit %d", limit)
	}
	heard := make(chan struct{})
	go func() {
		defer close(heard)
		sub.At(limit + 5)
	}()
	select {
	case <-heard:
		t.Fatalf("At(%d) returned while the remote held the clock at %d", limit+5, limit)
	case <-time.After(50 * time.Millisecond):
	}
	c.send(appendBye(nil))
	select {
	case <-heard:
	case <-time.After(5 * time.Second):
		t.Fatal("the remote's bye did not release the clock")
	}
	waitRemotes(t, b, 0)
}

// TestReleaseMidStream releases a remote every way there is while its pump
// is streaming flat out (so, more often than not, holding a part-built
// datagram): the pump exits, the station subscription is returned, Close
// does not hang, and nothing at or past the credit limit was ever written.
func TestReleaseMidStream(t *testing.T) {
	g := conformance.Network(t, 200, 300, 9)
	srv := testServers(t, g)[1]
	const window = 1 << 22 // seconds of streaming: every release lands mid-stream
	for _, how := range []string{"bye", "expiry", "close"} {
		t.Run(how, func(t *testing.T) {
			st := startStation(t, srv)
			b, err := NewBroadcaster("127.0.0.1:0", st, BroadcasterOptions{IdleTimeout: 200 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			closed := make(chan struct{})
			closeOnce := sync.OnceFunc(func() { b.Close(); close(closed) })
			t.Cleanup(closeOnce)

			c := rawDial(t, b)
			w := rawHello(t, c, window)
			limit := int(w.Start) + window
			check := func(wait time.Duration) bool {
				ftype, body, ok := c.read(wait)
				if ok && ftype == packet.FrameData {
					if pos := dataPos(t, body); pos >= limit {
						t.Fatalf("position %d written past the credit limit %d", pos, limit)
					}
				}
				return ok
			}
			for i := 0; i < 50; i++ {
				if !check(2 * time.Second) {
					t.Fatal("stream never started")
				}
			}
			switch how {
			case "bye":
				c.send(appendBye(nil))
			case "expiry":
				// Silence: the janitor reaps the remote after IdleTimeout.
			case "close":
				go closeOnce()
			}
			for check(400 * time.Millisecond) {
			}
			waitRemotes(t, b, 0)
			for deadline := time.Now().Add(5 * time.Second); st.Subscribers() != 0; {
				if time.Now().After(deadline) {
					t.Fatalf("%d station subscriptions still open after the remote was released", st.Subscribers())
				}
				time.Sleep(10 * time.Millisecond)
			}
			go closeOnce()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close hung: a pump did not exit")
			}
		})
	}
}

// mangle puts a one-client UDP relay in front of the broadcaster and
// returns its address: every broadcaster→client datagram passes through fn,
// which may damage it in place or return nil to drop it. Unlike the
// per-frame Corrupt hook, fn sees the datagram as it crosses the wire.
func mangle(t *testing.T, b *Broadcaster, fn func(datagram []byte) []byte) string {
	t.Helper()
	up, err := net.DialUDP("udp", nil, b.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var client atomic.Pointer[net.UDPAddr]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client → broadcaster
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, addr, err := front.ReadFromUDP(buf)
			if err != nil {
				return
			}
			client.Store(addr)
			up.Write(buf[:n])
		}
	}()
	go func() { // broadcaster → client
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, err := up.Read(buf)
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if err != nil {
				continue
			}
			if d := fn(buf[:n]); d != nil {
				front.WriteToUDP(d, client.Load())
			}
		}
	}()
	t.Cleanup(func() {
		front.Close()
		up.Close()
		wg.Wait()
	})
	return front.LocalAddr().String()
}

// frameOffsets returns where each frame of a data datagram starts and the
// position it carries; nil for a control datagram.
func frameOffsets(d []byte) (offs, poss []int) {
	for off := 0; off < len(d); {
		env, _, err := packet.SplitEnvelope(d[off:])
		if err != nil {
			return nil, nil
		}
		f, err := packet.DecodeFrame(env)
		if err != nil {
			return nil, nil
		}
		offs, poss = append(offs, off), append(poss, int(f.Pos))
		off += len(env)
	}
	return offs, poss
}

// damage is one way to hurt frame k of a datagram, and what it costs.
var damages = []struct {
	name string
	at   int // byte of the frame to flip a bit in
	// strands reports whether the frames after k are lost with it: true
	// once the boundary to them cannot be found any more.
	strands bool
}{
	{"payload", 30, false}, // inside the record area: frame k fails its CRC, alone
	{"length", 5, true},    // declared length: frame k fails, and the next boundary is off
	{"magic", 0, true},     // no boundary at k at all
}

// TestCorruptionInsideBatch damages one frame in the middle of one
// full datagram and checks the blast radius position by position: a payload
// bit costs that position only; a length or magic bit costs that position
// and the rest of its datagram — nothing before it, nothing in the next
// datagram — every loss is a wire gap with the right kind, and queries over
// a wire damaged all three ways keep answering with the reference distance.
func TestCorruptionInsideBatch(t *testing.T) {
	g := conformance.Network(t, 250, 380, 13)
	srv := testServers(t, g)[1] // NR
	cyc := srv.Cycle()
	const k = 3

	for _, dmg := range damages {
		t.Run(dmg.name, func(t *testing.T) {
			st := startStation(t, srv)
			b := serve(t, st, BroadcasterOptions{})
			// Damage frame k of the first datagram that has frames after it,
			// past the first few (so intact frames precede it on the stream).
			seen, done := 0, false
			chosen := make(chan []int, 1) // positions of the damaged datagram
			addr := mangle(t, b, func(d []byte) []byte {
				offs, poss := frameOffsets(d)
				if seen++; done || seen < 4 || len(offs) < k+3 {
					return d
				}
				d[offs[k]+dmg.at] ^= 0x04
				done = true
				chosen <- poss
				return d
			})
			rx, err := Dial(addr, ReceiverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			lost := map[int]bool{}
			for i := 0; i < 400; i++ {
				abs := rx.Start() + i
				p, ok := rx.At(abs)
				if !ok {
					lost[abs] = true
				}
				if want := cyc.Packets[abs%cyc.Len()].Kind; p.Kind != want {
					t.Fatalf("position %d: kind %v, want %v", abs, p.Kind, want)
				}
			}
			var hit []int
			select {
			case hit = <-chosen:
			default:
				t.Fatal("no datagram with enough frames crossed the relay: nothing was batched")
			}
			want := hit[k : k+1]
			if dmg.strands {
				want = hit[k:]
			}
			if len(lost) != len(want) || rx.WireLost() != len(want) {
				t.Fatalf("lost %v (WireLost %d), want exactly %v of datagram %v", lost, rx.WireLost(), want, hit)
			}
			for _, pos := range want {
				if !lost[pos] {
					t.Fatalf("lost %v, want exactly %v of datagram %v", lost, want, hit)
				}
			}
			if got := rx.corrupted; got < 1 || (!dmg.strands && got != 1) {
				t.Fatalf("corrupted = %d after one damaged frame", got)
			}
		})
	}

	t.Run("answers", func(t *testing.T) {
		st := startStation(t, srv)
		b := serve(t, st, BroadcasterOptions{})
		client, reference := srv.NewClient(), srv.NewClient()
		refCh, err := broadcast.NewChannel(cyc, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sawLost := false
		for i := 0; i < 6; i++ {
			// Every fifth datagram is damaged in its middle frame, the three
			// ways in turn.
			var seen int
			addr := mangle(t, b, func(d []byte) []byte {
				offs, _ := frameOffsets(d)
				if seen++; len(offs) > 0 && seen%5 == 0 {
					d[offs[len(offs)/2]+damages[(seen/5)%len(damages)].at] ^= 0x04
				}
				return d
			})
			q := scheme.QueryFor(g, graph.NodeID((i*31+5)%g.NumNodes()), graph.NodeID((i*57+11)%g.NumNodes()))
			rx, err := Dial(addr, ReceiverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wt := broadcast.NewFeedTuner(rx, rx.Start())
			res, err := client.Query(wt, q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if wt.Lost() != rx.WireLost() {
				t.Fatalf("query %d: tuner lost %d != wire lost %d (no injected loss configured)", i, wt.Lost(), rx.WireLost())
			}
			sawLost = sawLost || wt.Lost() > 0
			rx.Close()
			ref, err := reference.Query(broadcast.NewTuner(refCh, 0), q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Dist != ref.Dist {
				t.Fatalf("query %d: dist %v over the damaged wire, want %v", i, res.Dist, ref.Dist)
			}
		}
		if !sawLost {
			t.Fatal("no query ever listened to a damaged position; the test is vacuous")
		}
	})
}

// TestLoopbackDroppedBatchIsBurstGap drops whole datagrams with the chaos
// proxy, never two in a row: each costs the listener a contiguous burst of
// at most one datagram's worth of positions, served as gaps with the right
// kind; and over the same proxy a tuner's Lost covers the receiver's
// WireLost, with injected loss on top.
func TestLoopbackDroppedBatchIsBurstGap(t *testing.T) {
	g := conformance.Network(t, 250, 380, 17)
	srv := testServers(t, g)[1]
	cyc := srv.Cycle()
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})
	// A Gilbert-Elliott channel whose bad state drops everything and lasts
	// exactly one datagram: isolated whole-datagram losses. The seed is the
	// first whose flows (one per dial below) all let the handshake through —
	// a lost welcome loses the hello's whole credit window with it, which is
	// the dial path's business, not this test's.
	plan := chaos.Plan{PGoodBad: 0.15, PBadGood: 1, LossBad: 1}
	const dials = 5
seeds:
	for plan.Seed = 1; ; plan.Seed++ {
		for flow := 0; flow < dials; flow++ {
			p := plan
			p.Seed = chaos.DeriveSeed(plan.Seed, flow)
			inj, err := chaos.NewInjector(p)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 3; n++ {
				if len(inj.Apply([]byte{0})) == 0 {
					continue seeds
				}
			}
		}
		break
	}
	proxy, err := chaos.NewProxy("127.0.0.1:0", b.Addr().String(), chaos.ProxyOptions{Down: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	const perDatagram = maxDatagram / packet.MaxFrameSize

	rx, err := Dial(proxy.Addr(), ReceiverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runs, longest, run := 0, 0, 0
	for i := 0; i < 2*cyc.Len(); i++ {
		abs := rx.Start() + i
		p, ok := rx.At(abs)
		if want := cyc.Packets[abs%cyc.Len()].Kind; p.Kind != want {
			t.Fatalf("position %d: kind %v, want %v", abs, p.Kind, want)
		}
		if ok {
			run = 0
			continue
		}
		if run++; run == 1 {
			runs++
		}
		longest = max(longest, run)
	}
	wireLost := rx.WireLost()
	rx.Close()
	down, _ := proxy.Stats()
	t.Logf("%d datagrams dropped of %d: %d gaps in %d bursts, longest %d", down.Dropped, down.Datagrams, wireLost, runs, longest)
	if runs == 0 || uint64(runs) > down.Dropped {
		t.Fatalf("%d gap bursts for %d dropped datagrams", runs, down.Dropped)
	}
	if longest > perDatagram {
		t.Fatalf("a burst of %d gaps: one dropped datagram holds at most %d frames", longest, perDatagram)
	}
	if longest < 2 {
		t.Fatal("every dropped datagram held a single frame: nothing was batched, the test is vacuous")
	}
	if rx.corrupted != 0 {
		t.Fatalf("Corrupted %d on drops, want 0", rx.corrupted)
	}

	// WireLost ⊆ Lost, under injected loss too, and the answer holds.
	client, reference := srv.NewClient(), srv.NewClient()
	refCh, err := broadcast.NewChannel(cyc, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		q := scheme.QueryFor(g, graph.NodeID((i*29+3)%g.NumNodes()), graph.NodeID((i*61+17)%g.NumNodes()))
		rx, err := Dial(proxy.Addr(), ReceiverOptions{Loss: 0.05, Seed: int64(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		wt := broadcast.NewFeedTuner(rx, rx.Start())
		res, err := client.Query(wt, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if wt.Lost() < rx.WireLost() {
			t.Fatalf("query %d: tuner lost %d < wire lost %d", i, wt.Lost(), rx.WireLost())
		}
		rx.Close()
		ref, err := reference.Query(broadcast.NewTuner(refCh, 0), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist != ref.Dist {
			t.Fatalf("query %d: dist %v through the dropping proxy, want %v", i, res.Dist, ref.Dist)
		}
	}
}

// TestLostCreditTailServedAsGaps: the datagrams carrying the last positions
// below the granted credit limit are lost, and nothing follows them — the
// pump has parked on the limit. A receiver only sees a gap when a later
// frame arrives, so its silence timeout must grant credit past the old
// limit: the stream then moves on and the lost tail is served as gaps, with
// no redial (and, with no redial budget, no ErrDead).
func TestLostCreditTailServedAsGaps(t *testing.T) {
	g := conformance.Network(t, 200, 300, 19)
	srv := testServers(t, g)[1]
	cyc := srv.Cycle()
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})
	var lo, hi atomic.Int64 // wire positions in [lo, hi) never arrive
	hi.Store(-1)
	addr := mangle(t, b, func(d []byte) []byte {
		_, poss := frameOffsets(d)
		for _, pos := range poss {
			if int64(pos) >= lo.Load() && int64(pos) < hi.Load() {
				return nil
			}
		}
		return d
	})
	const window, span = 64, 200
	rx, err := Dial(addr, ReceiverOptions{Window: window, Timeout: 100 * time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	// Credit for a long read up front, then lose its last window and a bit:
	// the receiver reaches the loss more than half a window before the
	// limit, so neither its read-ahead nor a re-sent want(abs, abs+Window)
	// reaches past what the pump already has.
	limit := rx.Start() + span + window/2
	lo.Store(int64(limit - window - 5))
	hi.Store(int64(limit))
	rx.Prefetch(rx.Start(), span)

	read := func() (err error) {
		defer broadcast.RecoverCancel(&err)
		for abs := rx.Start(); abs < limit+window/4; abs++ {
			p, ok := rx.At(abs)
			if want := cyc.Packets[abs%cyc.Len()].Kind; p.Kind != want {
				t.Fatalf("position %d: kind %v, want %v", abs, p.Kind, want)
			}
			if ok && int64(abs) >= lo.Load() && int64(abs) < hi.Load() {
				t.Fatalf("position %d received, yet the relay dropped it", abs)
			}
		}
		return nil
	}
	if err := read(); err != nil {
		t.Fatalf("lost credit tail: %v (redials %d)", err, rx.redials)
	}
	if rx.redials != 0 {
		t.Fatalf("a lost credit tail cost %d redials", rx.redials)
	}
	if got, want := rx.WireLost(), int(hi.Load()-lo.Load()); got < want {
		t.Fatalf("WireLost %d, want at least the %d dropped positions", got, want)
	}
}

// TestWelcomeMustFitADatagram: one constant bounds everything either end
// writes, so a cycle whose kind schedule would need a larger welcome is
// refused when the broadcaster is set up, not discovered by silent dials.
func TestWelcomeMustFitADatagram(t *testing.T) {
	kinds := make([]packet.Kind, 600)
	for i := range kinds {
		kinds[i] = []packet.Kind{packet.KindIndex, packet.KindData}[i%2]
	}
	if _, err := appendWelcomeBody(nil, welcome{CycleLen: uint32(len(kinds)), Kinds: scheduleOf(kinds)}); err == nil {
		t.Fatalf("a %d-run kind schedule was framed into a welcome no receiver can read", len(kinds))
	}
	body, err := appendWelcomeBody(nil, welcome{CycleLen: 200, Kinds: scheduleOf(kinds[:200])})
	if w := packet.AppendEnvelope(nil, frameWelcome, body); err != nil || len(w) > maxDatagram {
		t.Fatalf("a 200-run schedule: %d bytes, err %v", len(w), err)
	}
}

// rawStream hellos a bare socket (no GRO: the kernel hands it one datagram
// per read) for window positions and returns, datagram by datagram, the
// positions it received, counted from the subscription's start. Every
// datagram must be at most maxDatagram bytes of whole frames.
func rawStream(t *testing.T, b *Broadcaster, window int) (datagrams [][]int) {
	t.Helper()
	c := rawDial(t, b)
	w := rawHello(t, c, uint32(window))
	buf := make([]byte, 1<<16)
	for got := 0; got < window; {
		c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := c.conn.Read(buf)
		if err != nil {
			t.Fatalf("stream stopped after %d of %d positions: %v", got, window, err)
		}
		if n > maxDatagram {
			t.Fatalf("a %d-byte datagram on the wire, more than maxDatagram %d", n, maxDatagram)
		}
		var poss []int
		for d := buf[:n]; len(d) > 0; {
			env, rest, err := packet.SplitEnvelope(d)
			if err != nil {
				t.Fatalf("datagram of %d bytes is not whole frames: %v", n, err)
			}
			ftype, body, err := packet.OpenEnvelope(env)
			if err != nil || ftype != packet.FrameData {
				t.Fatalf("frame of type %#x in a data datagram: %v", ftype, err)
			}
			poss = append(poss, dataPos(t, body)-int(w.Start))
			d = rest
		}
		got += len(poss)
		datagrams = append(datagrams, poss)
	}
	c.send(appendBye(nil))
	return datagrams
}

// TestPumpGSOKeepsWireBytes: a segmented write puts on the wire exactly the
// datagrams the per-datagram path writes. A receiver without GRO reads
// datagrams of at most maxDatagram bytes made of whole frames, and the same
// positions in the same datagrams whether the broadcaster segments or not;
// with segmentation a write carries several datagrams, without it one.
func TestPumpGSOKeepsWireBytes(t *testing.T) {
	g := conformance.Network(t, 200, 300, 7)
	srv := testServers(t, g)[1]
	const window = 200 // 22 full datagrams and a part
	var layouts [2][][]int
	for i, gso := range []bool{true, false} {
		b := serve(t, startStation(t, srv), BroadcasterOptions{})
		if gso && !b.gso.Load() {
			t.Skip("the kernel does not segment UDP writes here")
		}
		b.gso.Store(gso)
		sent, writes := obsSent.Value(), obsWrites.Value()
		layouts[i] = rawStream(t, b, window)
		waitRemotes(t, b, 0)
		sent, writes = obsSent.Value()-sent, obsWrites.Value()-writes
		if sent != int64(len(layouts[i])) {
			t.Errorf("gso %v: %d datagrams counted sent, %d received", gso, sent, len(layouts[i]))
		}
		if gso && writes >= sent || !gso && writes != sent {
			t.Errorf("gso %v: %d writes for %d datagrams", gso, writes, sent)
		}
	}
	next := 0
	for _, d := range layouts[0] {
		for _, pos := range d {
			if pos != next {
				t.Fatalf("position %d where %d was due", pos, next)
			}
			next++
		}
	}
	if fmt.Sprint(layouts[0]) != fmt.Sprint(layouts[1]) {
		t.Fatalf("datagrams differ with and without segmentation:\n%v\n%v", layouts[0], layouts[1])
	}
}

// TestCorruptionInsideGROSegment is TestCorruptionInsideBatch on a read the
// kernel coalesced: the Corrupt hook damages frame k of the third datagram
// of the first segmented write, which a GRO receiver reads in one buffer
// with the datagrams around it. A payload bit costs that position; a
// length or magic bit costs it and the rest of its datagram, not the rest
// of the read.
func TestCorruptionInsideGROSegment(t *testing.T) {
	g := conformance.Network(t, 250, 380, 13)
	srv := testServers(t, g)[1]
	cyc := srv.Cycle()
	const k, datagram = 3, 2
	for _, dmg := range damages {
		t.Run(dmg.name, func(t *testing.T) {
			var first atomic.Int64
			first.Store(-1)
			b := serve(t, startStation(t, srv), BroadcasterOptions{
				Corrupt: func(pos uint64, frame []byte) []byte {
					first.CompareAndSwap(-1, int64(pos))
					if int64(pos) == first.Load()+datagram*maxFrames+k {
						frame[dmg.at] ^= 0x04
					}
					return frame
				},
			})
			if !b.gso.Load() {
				t.Skip("the kernel does not segment UDP writes here")
			}
			rx, err := Dial(b.Addr().String(), ReceiverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			hit := rx.Start() + datagram*maxFrames + k
			want := map[int]bool{hit: true}
			if dmg.strands {
				for pos := hit; pos < rx.Start()+(datagram+1)*maxFrames; pos++ {
					want[pos] = true
				}
			}
			lost := map[int]bool{}
			for abs := rx.Start(); abs < rx.Start()+200; abs++ {
				p, ok := rx.At(abs)
				if !ok {
					lost[abs] = true
				}
				if want := cyc.Packets[abs%cyc.Len()].Kind; p.Kind != want {
					t.Fatalf("position %d: kind %v, want %v", abs, p.Kind, want)
				}
				if abs == hit && len(rx.more) == 0 {
					t.Fatal("the damaged datagram was the last of its read: the receiver did not read a coalesced run")
				}
			}
			if fmt.Sprint(lost) != fmt.Sprint(want) || rx.WireLost() != len(want) {
				t.Fatalf("lost %v (WireLost %d), want exactly %v", lost, rx.WireLost(), want)
			}
			if got := rx.corrupted; got < 1 || (!dmg.strands && got != 1) {
				t.Fatalf("corrupted = %d after one damaged frame", got)
			}
		})
	}
}
