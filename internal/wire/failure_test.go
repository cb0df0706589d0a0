package wire

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/conformance"
	"repro/internal/packet"
)

// rawClient is a bare UDP socket speaking the control protocol by hand —
// for tests that need to send frames a well-behaved Receiver never would
// (duplicate hellos, stale wants).
type rawClient struct {
	t    *testing.T
	conn *net.UDPConn
	buf  []byte
	rest []byte // unread frames of the last datagram (aliases buf)
	// datagrams counts datagrams read; frames the envelopes walked in them.
	datagrams, frames int
}

func rawDial(t *testing.T, b *Broadcaster) *rawClient {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, buf: make([]byte, 2048)}
}

func (c *rawClient) send(frame []byte) {
	c.t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		c.t.Fatalf("send: %v", err)
	}
}

// read returns the next frame's type and body, walking the envelopes of a
// datagram before reading the next one; false on timeout.
func (c *rawClient) read(timeout time.Duration) (uint8, []byte, bool) {
	c.t.Helper()
	if len(c.rest) == 0 {
		c.conn.SetReadDeadline(time.Now().Add(timeout))
		n, err := c.conn.Read(c.buf)
		if err != nil {
			return 0, nil, false
		}
		c.datagrams++
		c.rest = c.buf[:n]
	}
	env, rest, err := packet.SplitEnvelope(c.rest)
	if err != nil {
		c.t.Fatalf("bad frame boundary from broadcaster: %v", err)
	}
	c.rest = rest
	c.frames++
	ftype, body, err := packet.OpenEnvelope(env)
	if err != nil {
		c.t.Fatalf("bad envelope from broadcaster: %v", err)
	}
	return ftype, body, true
}

// waitRemotes polls the broadcaster's remote count.
func waitRemotes(t *testing.T, b *Broadcaster, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Remotes() != want {
		if time.Now().After(deadline) {
			t.Fatalf("Remotes() = %d, want %d (timed out)", b.Remotes(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestByeReleasesRemote: an explicit bye releases the subscription
// immediately — no waiting for the janitor's idle horizon.
func TestByeReleasesRemote(t *testing.T) {
	g := conformance.Network(t, 200, 300, 5)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{}) // default 30s idle: only a bye can be this fast
	rx, err := Dial(b.Addr().String(), ReceiverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rx.At(rx.Start()); !ok {
		t.Fatal("first position lost on a clean loopback")
	}
	waitRemotes(t, b, 1)
	rx.Close() // sends the bye
	waitRemotes(t, b, 0)
}

// TestDuplicateHelloReWelcomes: a re-sent hello (the welcome was lost, or
// the network duplicated the datagram) re-welcomes the existing remote
// instead of double-subscribing it.
func TestDuplicateHelloReWelcomes(t *testing.T) {
	g := conformance.Network(t, 200, 300, 7)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})

	c := rawDial(t, b)
	hello := appendHello(nil, 64)
	for i := 0; i < 3; i++ {
		c.send(hello)
		// The first hello's credit window starts streaming immediately, so
		// data frames may arrive ahead of a re-welcome; skip them.
		welcomed := false
		for !welcomed {
			ftype, body, ok := c.read(2 * time.Second)
			if !ok {
				t.Fatalf("hello %d: no welcome", i)
			}
			if ftype != frameWelcome {
				continue
			}
			if _, err := parseWelcome(body); err != nil {
				t.Fatalf("hello %d: bad welcome: %v", i, err)
			}
			welcomed = true
		}
		if got := b.Remotes(); got != 1 {
			t.Fatalf("after hello %d: Remotes() = %d, want 1 (double subscription)", i, got)
		}
	}
	c.send(appendBye(nil))
	waitRemotes(t, b, 0)
}

// TestStaleWantIgnored: credit positions only move forward, so a
// duplicated or reordered want frame arriving late (with positions the
// stream already passed) must not rewind the pump.
func TestStaleWantIgnored(t *testing.T) {
	r := &remote{credit: make(chan struct{}, 1)}
	r.advance(100, 200)
	// A stale duplicate from an earlier window.
	r.advance(40, 80)
	if w := r.want.Load(); w != 100 {
		t.Fatalf("stale want rewound position to %d, want 100", w)
	}
	if l := r.limit.Load(); l != 200 {
		t.Fatalf("stale want rewound limit to %d, want 200", l)
	}
	// A genuine advance still lands.
	r.advance(150, 300)
	if w, l := r.want.Load(), r.limit.Load(); w != 150 || l != 300 {
		t.Fatalf("fresh want ignored: pos %d limit %d, want 150/300", w, l)
	}
}

// TestStaleWantOnTheWire drives the same property end to end: after the
// receiver has read past a window, replaying its old want datagram must
// not make the broadcaster re-stream old positions.
func TestStaleWantOnTheWire(t *testing.T) {
	g := conformance.Network(t, 200, 300, 9)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})

	c := rawDial(t, b)
	c.send(appendHello(nil, 16))
	ftype, body, ok := c.read(2 * time.Second)
	if !ok || ftype != frameWelcome {
		t.Fatalf("no welcome (type %#x ok %v)", ftype, ok)
	}
	w, err := parseWelcome(body)
	if err != nil {
		t.Fatal(err)
	}
	start := w.Start

	// Drain the hello's initial window, then replay a want for it.
	drained := 0
	for {
		ftype, _, ok := c.read(500 * time.Millisecond)
		if !ok {
			break
		}
		if ftype == packet.FrameData {
			drained++
		}
	}
	if drained == 0 {
		t.Fatal("initial credit window streamed nothing")
	}
	c.send(appendWant(nil, start, start+4)) // stale: all below the stream position
	if ftype, _, ok := c.read(400 * time.Millisecond); ok && ftype == packet.FrameData {
		t.Fatal("stale want re-streamed already-sent positions")
	}
	c.send(appendBye(nil))
}

// TestAdmissionRefusal: a broadcaster at MaxRemotes answers hellos with a
// typed busy frame; the dialing receiver fails fast with ErrRefused
// instead of burning its dial deadline, and a released slot admits again.
func TestAdmissionRefusal(t *testing.T) {
	g := conformance.Network(t, 200, 300, 11)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{MaxRemotes: 1})

	rx1, err := Dial(b.Addr().String(), ReceiverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rx1.At(rx1.Start()); !ok {
		t.Fatal("first position lost on a clean loopback")
	}

	began := time.Now()
	_, err = Dial(b.Addr().String(), ReceiverOptions{Timeout: 2 * time.Second, Retries: 4})
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("dial against a full broadcaster: err %v, want ErrRefused", err)
	}
	// Fail fast: the busy frame arrives on the first hello, nowhere near
	// the 8s dial budget.
	if waited := time.Since(began); waited > 2*time.Second {
		t.Errorf("refused dial took %v — burned the deadline instead of failing fast", waited)
	}

	rx1.Close()
	waitRemotes(t, b, 0)
	rx2, err := Dial(b.Addr().String(), ReceiverOptions{})
	if err != nil {
		t.Fatalf("dial after the slot freed: %v", err)
	}
	rx2.Close()
}

// TestBusyFrameRoundTrip pins the busy-frame codec and its rejection of
// malformed bodies.
func TestBusyFrameRoundTrip(t *testing.T) {
	frame := appendBusy(nil, 7, 16)
	ftype, body, err := packet.OpenEnvelope(frame)
	if err != nil || ftype != frameBusy {
		t.Fatalf("envelope: type %#x err %v", ftype, err)
	}
	remotes, max, err := parseBusy(body)
	if err != nil || remotes != 7 || max != 16 {
		t.Fatalf("parseBusy: %d/%d err %v, want 7/16", remotes, max, err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, _, err := parseBusy(body[:cut]); err == nil {
			t.Fatalf("truncated busy body (%d bytes) accepted", cut)
		}
	}
}

// TestRedialResumesAfterRestart is the transport half of the chaos drill:
// the broadcaster dies mid-stream and comes back on the same port with the
// same cycle; a receiver with redial budget re-anchors and keeps serving
// the right packet kinds at the same client positions — the partial answer
// above it stays valid.
func TestRedialResumesAfterRestart(t *testing.T) {
	g := conformance.Network(t, 200, 300, 13)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b, err := NewBroadcaster("127.0.0.1:0", st, BroadcasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr().String()

	rx, err := Dial(addr, ReceiverOptions{
		Timeout: 150 * time.Millisecond, Retries: 2,
		Redial: 4, DialTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	cyc := srv.Cycle()

	read := func(n int) (err error) {
		defer broadcast.RecoverCancel(&err)
		for i := 0; i < n; i++ {
			abs := rx.Start() + i
			p, _ := rx.At(abs)
			if want := cyc.Packets[abs%cyc.Len()].Kind; p.Kind != want {
				t.Fatalf("position %d: kind %v, want %v", abs, p.Kind, want)
			}
		}
		return nil
	}
	if err := read(20); err != nil {
		t.Fatalf("before restart: %v", err)
	}

	b.Close()
	restarted := make(chan *Broadcaster, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		b2, err := NewBroadcaster(addr, st, BroadcasterOptions{})
		if err != nil {
			t.Errorf("restart on %s: %v", addr, err)
			restarted <- nil
			return
		}
		restarted <- b2
	}()
	defer func() {
		if b2 := <-restarted; b2 != nil {
			b2.Close()
		}
	}()

	// Read across the outage: the receiver must ride through on redials,
	// not abort.
	if err := read(2 * cyc.Len()); err != nil {
		t.Fatalf("across restart: %v", err)
	}
	if rx.redials == 0 {
		t.Fatal("stream survived the restart without a single redial — outage never happened?")
	}
	if rx.Stale() {
		t.Fatal("same-cycle restart marked the receiver stale")
	}
}

// TestRestartWithDifferentCycleAborts: the broadcaster comes back serving
// different air (another cycle geometry). Resuming would silently corrupt
// the partial answer, so the receiver must abort with ErrRestarted and
// mark itself stale for the session layer to re-attach.
func TestRestartWithDifferentCycleAborts(t *testing.T) {
	g := conformance.Network(t, 200, 300, 15)
	servers := testServers(t, g)
	nr, eb := servers[1], servers[0]
	if nr.Cycle().Len() == eb.Cycle().Len() {
		t.Skip("test networks built identical cycle lengths; geometry change undetectable")
	}
	st := startStation(t, nr)
	b, err := NewBroadcaster("127.0.0.1:0", st, BroadcasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr().String()

	rx, err := Dial(addr, ReceiverOptions{
		Timeout: 150 * time.Millisecond, Retries: 2,
		Redial: 4, DialTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if _, ok := rx.At(rx.Start()); !ok {
		t.Fatal("first position lost on a clean loopback")
	}

	b.Close()
	st2 := startStation(t, eb) // different scheme, different cycle length
	b2, err := NewBroadcaster(addr, st2, BroadcasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	read := func() (err error) {
		defer broadcast.RecoverCancel(&err)
		for i := 1; i < 1<<20; i++ {
			rx.At(rx.Start() + i)
		}
		return nil
	}
	err = read()
	if !errors.Is(err, ErrRestarted) {
		t.Fatalf("read across a different-cycle restart: err %v, want ErrRestarted", err)
	}
	if !rx.Stale() {
		t.Fatal("receiver not marked stale after ErrRestarted")
	}
}

// TestRedialExhaustionDies: with the broadcaster gone for good, the redial
// budget runs out and the feed aborts with ErrDead — bounded, never an
// infinite reconnect loop.
func TestRedialExhaustionDies(t *testing.T) {
	g := conformance.Network(t, 200, 300, 17)
	srv := testServers(t, g)[1]
	st := startStation(t, srv)
	b := serve(t, st, BroadcasterOptions{})
	rx, err := Dial(b.Addr().String(), ReceiverOptions{
		Timeout: 100 * time.Millisecond, Retries: 2,
		Redial: 2, DialTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
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
	err = read()
	if !errors.Is(err, ErrDead) {
		t.Fatalf("read against a gone broadcaster: err %v, want ErrDead", err)
	}
	if rx.redials == 0 {
		t.Fatal("feed died without spending its redial budget")
	}
}
