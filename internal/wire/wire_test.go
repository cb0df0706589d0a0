package wire

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/station"
)

// startStation puts srv's cycle on a virtual-clock station.
func startStation(t *testing.T, srv scheme.Server) *station.Station {
	t.Helper()
	st, err := station.New(srv.Cycle(), station.Config{})
	if err != nil {
		t.Fatalf("station.New: %v", err)
	}
	if err := st.Start(context.Background()); err != nil {
		t.Fatalf("station.Start: %v", err)
	}
	t.Cleanup(st.Stop)
	return st
}

// serve wires a loopback broadcaster in front of the station.
func serve(t *testing.T, st *station.Station, opts BroadcasterOptions) *Broadcaster {
	t.Helper()
	b, err := NewBroadcaster("127.0.0.1:0", st, opts)
	if err != nil {
		t.Fatalf("NewBroadcaster: %v", err)
	}
	t.Cleanup(b.Close)
	return b
}

// testServers builds the EB and NR servers of one conformance network.
func testServers(t *testing.T, g *graph.Graph) []scheme.Server {
	t.Helper()
	eb, err := core.NewEB(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatalf("NewEB: %v", err)
	}
	nr, err := core.NewNR(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatalf("NewNR: %v", err)
	}
	return []scheme.Server{eb, nr}
}

// TestLoopbackMatchesOffline pins the transport's key invariant: a query
// answered over a UDP loopback receiver is bit-identical — distance,
// tuning, latency, lost-packet accounting — to an offline replay from the
// same tune-in position with the same (loss, seed). With the live==offline
// equivalence the station suite already pins, this makes remote sessions
// equivalent to in-process live sessions, for EB and NR on two networks,
// at zero and at nonzero injected loss.
func TestLoopbackMatchesOffline(t *testing.T) {
	networks := []*graph.Graph{
		conformance.Network(t, 350, 500, 11),
		conformance.Network(t, 200, 320, 7),
	}
	for ni, g := range networks {
		for _, srv := range testServers(t, g) {
			for _, loss := range []float64{0, 0.08} {
				t.Run(fmt.Sprintf("net%d/%s/loss%v", ni, srv.Name(), loss), func(t *testing.T) {
					st := startStation(t, srv)
					b := serve(t, st, BroadcasterOptions{})
					client := srv.NewClient()
					offline := srv.NewClient()
					for i := 0; i < 8; i++ {
						s := graph.NodeID((i*17 + 3) % g.NumNodes())
						d := graph.NodeID((i*43 + 29) % g.NumNodes())
						if s == d {
							continue
						}
						q := scheme.QueryFor(g, s, d)
						seed := int64(5000 + 100*ni + i)

						rx, err := Dial(b.Addr().String(), ReceiverOptions{Loss: loss, Seed: seed})
						if err != nil {
							t.Fatalf("Dial: %v", err)
						}
						wt := broadcast.NewFeedTuner(rx, rx.Start())
						res, err := client.Query(wt, q)
						start := rx.Start()
						wireLost, corrupted := rx.WireLost(), rx.corrupted
						rx.Close()
						if err != nil {
							t.Fatalf("%s wire query %d: %v", srv.Name(), i, err)
						}
						if wireLost != 0 || corrupted != 0 {
							t.Fatalf("%s wire query %d: loopback lost %d / corrupted %d datagrams",
								srv.Name(), i, wireLost, corrupted)
						}

						ch, err := broadcast.NewChannel(srv.Cycle(), loss, seed)
						if err != nil {
							t.Fatal(err)
						}
						ot := broadcast.NewTuner(ch, start)
						off, err := offline.Query(ot, q)
						if err != nil {
							t.Fatalf("%s offline query %d: %v", srv.Name(), i, err)
						}

						if res.Dist != off.Dist {
							t.Errorf("%s query %d: wire dist %v != offline %v", srv.Name(), i, res.Dist, off.Dist)
						}
						if res.Metrics.TuningPackets != off.Metrics.TuningPackets ||
							res.Metrics.LatencyPackets != off.Metrics.LatencyPackets {
							t.Errorf("%s query %d: wire tuning/latency %d/%d != offline %d/%d",
								srv.Name(), i,
								res.Metrics.TuningPackets, res.Metrics.LatencyPackets,
								off.Metrics.TuningPackets, off.Metrics.LatencyPackets)
						}
						if wt.Lost() != ot.Lost() {
							t.Errorf("%s query %d: wire lost %d != offline lost %d",
								srv.Name(), i, wt.Lost(), ot.Lost())
						}
					}
				})
			}
		}
	}
}

// TestCorruptionAccountedAsLost injects frame corruption broadcaster-side
// and checks the CRC layer's contract end to end: every corrupted datagram
// is rejected (never decoded into a wrong answer), the position surfaces
// to the tuner as a lost reception with the correct packet kind, and the
// client still answers correctly by recovering in a later cycle.
func TestCorruptionAccountedAsLost(t *testing.T) {
	g := conformance.Network(t, 250, 380, 13)
	srv := testServers(t, g)[1] // NR
	st := startStation(t, srv)
	corruptEvery := 7
	b := serve(t, st, BroadcasterOptions{
		Corrupt: func(pos uint64, frame []byte) []byte {
			if pos%uint64(corruptEvery) == 0 {
				frame[len(frame)/2] ^= 0x20 // fails the CRC, not just the header
			}
			return frame
		},
	})

	// Feed-level contract: every corrupted position is served lost with
	// the right kind, everything else arrives intact.
	rx, err := Dial(b.Addr().String(), ReceiverOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cyc := srv.Cycle()
	wantLost := 0
	for i := 0; i < 2*cyc.Len(); i++ {
		abs := rx.Start() + i
		p, ok := rx.At(abs)
		if abs%corruptEvery == 0 {
			wantLost++
			if ok {
				t.Fatalf("position %d: corrupted frame served as intact", abs)
			}
		} else if !ok {
			t.Fatalf("position %d: clean frame served as lost", abs)
		}
		if want := cyc.Packets[abs%cyc.Len()].Kind; p.Kind != want {
			t.Fatalf("position %d: kind %v, want %v", abs, p.Kind, want)
		}
	}
	if rx.WireLost() != wantLost {
		t.Fatalf("WireLost %d, want %d", rx.WireLost(), wantLost)
	}
	if rx.corrupted != wantLost {
		t.Fatalf("Corrupted %d, want %d (every rejected datagram counted)", rx.corrupted, wantLost)
	}
	rx.Close()

	// Client-level contract: queries over the corrupted wire still answer
	// with the lossless reference distance, charging the corruption to
	// tuning time and Tuner.Lost only.
	client := srv.NewClient()
	reference := srv.NewClient()
	refCh, err := broadcast.NewChannel(cyc, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sawLost := false
	for i := 0; i < 5; i++ {
		q := scheme.QueryFor(g, graph.NodeID((i*31+5)%g.NumNodes()), graph.NodeID((i*57+11)%g.NumNodes()))
		rx, err := Dial(b.Addr().String(), ReceiverOptions{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		wt := broadcast.NewFeedTuner(rx, rx.Start())
		res, err := client.Query(wt, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if wt.Lost() != rx.WireLost() {
			t.Fatalf("query %d: tuner lost %d != wire lost %d (no injected loss configured)",
				i, wt.Lost(), rx.WireLost())
		}
		sawLost = sawLost || wt.Lost() > 0
		rx.Close()
		ref, err := reference.Query(broadcast.NewTuner(refCh, 0), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist != ref.Dist {
			t.Fatalf("query %d: dist %v over corrupted wire, want %v", i, res.Dist, ref.Dist)
		}
	}
	if !sawLost {
		t.Fatal("no query ever listened to a corrupted position; the injection test is vacuous")
	}
}

// TestDroppedDatagramsAreGaps drops (rather than corrupts) a slice of
// outgoing datagrams: the receiver must serve the holes as lost packets
// the moment the stream skips past them.
func TestDroppedDatagramsAreGaps(t *testing.T) {
	g := conformance.Network(t, 200, 300, 5)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{
		Corrupt: func(pos uint64, frame []byte) []byte {
			if pos%11 == 3 {
				return nil // dropped on the floor, like a congested router
			}
			return frame
		},
	})
	rx, err := Dial(b.Addr().String(), ReceiverOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer rx.Close()
	lost := 0
	for i := 0; i < 300; i++ {
		abs := rx.Start() + i
		_, ok := rx.At(abs)
		if abs%11 == 3 {
			lost++
			if ok {
				t.Fatalf("position %d: dropped datagram served as intact", abs)
			}
		} else if !ok {
			t.Fatalf("position %d: delivered datagram served as lost", abs)
		}
	}
	if rx.WireLost() != lost {
		t.Fatalf("WireLost %d, want %d", rx.WireLost(), lost)
	}
	if rx.corrupted != 0 {
		t.Fatalf("Corrupted %d on drops, want 0", rx.corrupted)
	}
}

// TestSleepSkipsAhead checks the credit path of a sleeping radio: a jump
// far beyond the current window (several cycles ahead) must neither stall
// nor surface phantom losses — the broadcaster skips with the receiver.
func TestSleepSkipsAhead(t *testing.T) {
	g := conformance.Network(t, 200, 300, 9)
	srv := testServers(t, g)[0]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})
	rx, err := Dial(b.Addr().String(), ReceiverOptions{Window: 64})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer rx.Close()
	cyc := srv.Cycle()
	abs := rx.Start()
	for hop := 0; hop < 6; hop++ {
		p, ok := rx.At(abs)
		if !ok {
			t.Fatalf("position %d served as lost on a clean loopback", abs)
		}
		if want := cyc.Packets[abs%cyc.Len()].Kind; p.Kind != want {
			t.Fatalf("position %d: kind %v, want %v", abs, p.Kind, want)
		}
		abs += 3*cyc.Len() + 17 // sleep multiple cycles ahead
	}
	if rx.WireLost() != 0 {
		t.Fatalf("WireLost %d after sleeps, want 0", rx.WireLost())
	}
}

// TestDeadWireAborts checks both failure surfaces of a vanished
// broadcaster: an explicit bye (broadcaster closed) and plain silence
// (retry budget exhausted) abort the listen loop through the same typed
// panic the tuner's bound-context cancellation uses, so query entry
// points recover it into an ordinary error.
func TestDeadWireAborts(t *testing.T) {
	g := conformance.Network(t, 200, 300, 3)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})
	rx, err := Dial(b.Addr().String(), ReceiverOptions{Timeout: 200 * time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer rx.Close()
	if _, ok := rx.At(rx.Start()); !ok {
		t.Fatal("first position lost on a clean loopback")
	}
	b.Close()

	read := func() (err error) {
		defer broadcast.RecoverCancel(&err)
		for i := 1; i < 1<<20; i++ {
			rx.At(rx.Start() + i)
		}
		return nil
	}
	if err := read(); err == nil {
		t.Fatal("receiver kept serving after the broadcaster closed")
	} else if !errors.Is(err, ErrDead) {
		t.Fatalf("dead wire surfaced as %v, want ErrDead", err)
	}
}

// TestDialNobodyListening checks that a dial against a dead port fails
// with an error instead of hanging or panicking.
func TestDialNobodyListening(t *testing.T) {
	_, err := Dial("127.0.0.1:9", ReceiverOptions{Timeout: 150 * time.Millisecond, Retries: 2})
	if err == nil {
		t.Fatal("Dial against a dead port succeeded")
	}
}

// TestIdleRemoteExpires checks the janitor: a receiver that vanishes
// without a bye is reclaimed after the idle timeout, so it cannot pin its
// subscription forever.
func TestIdleRemoteExpires(t *testing.T) {
	g := conformance.Network(t, 200, 300, 17)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{IdleTimeout: 150 * time.Millisecond})
	rx, err := Dial(b.Addr().String(), ReceiverOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, ok := rx.At(rx.Start()); !ok {
		t.Fatal("first position lost on a clean loopback")
	}
	if got := b.Remotes(); got != 1 {
		t.Fatalf("Remotes() = %d after handshake, want 1", got)
	}
	// Vanish without a bye: close the socket only.
	rx.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for b.Remotes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle remote still subscribed after %v", time.Since(deadline.Add(-5*time.Second)))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWelcomeRoundTrip pins the control-frame codec, including the RLE
// kind schedule, and its rejection of malformed bodies.
func TestWelcomeRoundTrip(t *testing.T) {
	kinds := make([]packet.Kind, 0, 10)
	for _, run := range []struct {
		k packet.Kind
		n int
	}{{packet.KindIndex, 2}, {packet.KindData, 7}, {packet.KindIndex, 1}} {
		for i := 0; i < run.n; i++ {
			kinds = append(kinds, run.k)
		}
	}
	in := welcome{Start: 987654, CycleLen: 10, Version: 3, Rate: 384000, Kinds: scheduleOf(kinds)}
	body, err := appendWelcomeBody(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	ftype, body, err := packet.OpenEnvelope(packet.AppendEnvelope(nil, frameWelcome, body))
	if err != nil || ftype != frameWelcome {
		t.Fatalf("envelope: type %d err %v", ftype, err)
	}
	out, err := parseWelcome(body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Start != in.Start || out.CycleLen != in.CycleLen || out.Version != in.Version || out.Rate != in.Rate {
		t.Fatalf("welcome header round-trip: %+v", out)
	}
	for i := range kinds {
		if got := out.Kinds.at(i); got != kinds[i] {
			t.Fatalf("kind schedule position %d: %v, want %v", i, got, kinds[i])
		}
	}
	// Malformed bodies must be rejected, never panic or over-allocate.
	for cut := 0; cut < len(body); cut++ {
		if _, err := parseWelcome(body[:cut]); err == nil && cut < len(body) {
			t.Fatalf("truncated welcome body of %d bytes parsed", cut)
		}
	}
	bad := append([]byte(nil), body...)
	bad[8] = 0xff // cycleLen no longer matches the schedule
	bad[9] = 0xff
	if _, err := parseWelcome(bad); err == nil {
		t.Fatal("welcome with mismatched cycle length parsed")
	}
}

// scheduleOf run-length encodes a kind per position.
func scheduleOf(kinds []packet.Kind) schedule {
	var s schedule
	for _, k := range kinds {
		s = s.add(k)
	}
	return s
}

// TestReceiverAtDoesNotAllocate pins the wire receive path at zero
// allocations per position: over a steady-state loopback stream every
// payload is served as a view of the datagram buffer, and the credit
// refreshes, socket reads and frame walks along the way allocate nothing —
// on either end, since the count covers the broadcaster's pump as well.
func TestReceiverAtDoesNotAllocate(t *testing.T) {
	srv := testServers(t, conformance.Network(t, 200, 320, 7))[1]
	b := serve(t, startStation(t, srv), BroadcasterOptions{})
	rx, err := Dial(b.Addr().String(), ReceiverOptions{Loss: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	pos := rx.Start()
	for ; pos < rx.Start()+2*rx.Len(); pos++ { // reach steady state
		rx.At(pos)
	}
	if n := testing.AllocsPerRun(2000, func() {
		rx.At(pos)
		pos++
	}); n != 0 {
		t.Fatalf("Receiver.At allocates %v times per position", n)
	}
	if rx.WireLost() != 0 {
		t.Fatalf("loopback lost %d positions", rx.WireLost())
	}
}

// TestReceiverSpanDoesNotAllocate pins the run reception at zero
// allocations per view: the frames of a datagram are served as views of
// the datagram buffer in the receiver's own view array.
func TestReceiverSpanDoesNotAllocate(t *testing.T) {
	srv := testServers(t, conformance.Network(t, 200, 320, 7))[1]
	b := serve(t, startStation(t, srv), BroadcasterOptions{})
	rx, err := Dial(b.Addr().String(), ReceiverOptions{Loss: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	pos := rx.Start()
	for pos < rx.Start()+2*rx.Len() { // reach steady state
		pkts, _ := rx.Span(pos, 64)
		pos += len(pkts)
	}
	if n := testing.AllocsPerRun(1000, func() {
		pkts, _ := rx.Span(pos, 64)
		for range pkts {
			pos++
		}
	}); n != 0 {
		t.Fatalf("Receiver.Span allocates %v times per view", n)
	}
	if rx.WireLost() != 0 {
		t.Fatalf("loopback lost %d positions", rx.WireLost())
	}
}
