package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broadcast"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/station"
)

// Package-level instruments (DESIGN.md §10).
var (
	obsSent = obs.GetCounter("air_wire_datagrams_sent_total",
		"data datagrams written to the socket, each carrying one or more framed broadcast packets")
	obsFrames = obs.GetCounter("air_wire_frames_sent_total",
		"framed broadcast packets written to the socket (frames per datagram = this over air_wire_datagrams_sent_total)")
	obsWrites = obs.GetCounter("air_wire_writes_total",
		"data writes to the socket, one per send call (datagrams per write = air_wire_datagrams_sent_total over this)")
	obsHellos = obs.GetCounter("air_wire_hellos_total",
		"handshakes accepted by wire broadcasters")
	obsRemotes = obs.GetGauge("air_wire_remotes",
		"remote receivers currently subscribed over the wire")
	obsExpired = obs.GetCounter("air_wire_expired_remotes_total",
		"remote receivers dropped for idling past the timeout")
	obsRecv = obs.GetCounter("air_wire_datagrams_received_total",
		"datagrams received by wire receivers (a coalesced read counts each datagram in it)")
	obsCorrupt = obs.GetCounter("air_wire_corrupt_frames_total",
		"received datagrams rejected by the frame integrity check")
	obsGaps = obs.GetCounter("air_wire_gap_packets_total",
		"positions a receiver served as lost because the wire skipped past them")
	obsBusy = obs.GetCounter("air_wire_refused_remotes_total",
		"hellos refused with a busy frame (admission control: remote cap or full station)")
)

// BroadcasterOptions tune a wire broadcaster. The zero value is a
// production transport: no corruption hook, 30s idle expiry.
type BroadcasterOptions struct {
	// IdleTimeout drops a remote that has sent no hello/want this long: a
	// receiver that vanished without a bye must not hold its subscription
	// (and, through backpressure, the station) forever. Default 30s.
	IdleTimeout time.Duration
	// Corrupt, when set, intercepts every outgoing data frame before it
	// joins its datagram: tests use it to flip bits (the receiver must reject
	// the frame by CRC and account the position as lost) or return nil to
	// drop the frame outright. The callback may mutate and return frame in
	// place, or return a shorter frame, never a longer one: a segmented
	// write is cut into datagrams on full-frame boundaries. It must be safe
	// for concurrent use — one pump goroutine per remote calls it.
	// chaos.Injector.WireHook is the standard deterministic implementation.
	Corrupt func(pos uint64, frame []byte) []byte
	// MaxRemotes caps concurrently subscribed remotes: a hello past the cap
	// is answered with a busy frame (a typed refusal the receiver surfaces
	// as ErrRefused) instead of a subscription the station cannot afford.
	// A full station (station.ErrFull) is shed the same way. 0 = unlimited.
	MaxRemotes int
}

// Broadcaster drains a live station onto a UDP socket: every remote
// receiver that completes the hello/welcome handshake gets its own station
// subscription and a pump goroutine streaming framed packets from its
// subscribe position — every frame that is ready, up to maxDatagram, per
// datagram, and a run of full datagrams per write — paced by the
// receiver's want/limit credit. One Broadcaster
// serves any number of remotes; the station's own clock (and its lossless
// virtual-clock backpressure or paced-clock miss semantics) stays the
// single source of air truth.
type Broadcaster struct {
	st   *station.Station
	opts BroadcasterOptions
	conn *net.UDPConn

	cancel  context.CancelFunc
	ctx     context.Context
	wg      sync.WaitGroup
	started time.Time

	mu      sync.Mutex
	remotes map[netip.AddrPort]*remote
	closed  bool

	// gso is whether a pump may hand the kernel a run of datagrams in one
	// segmented write: probed once when the socket opens, turned off for
	// good by the first write the path refuses.
	gso atomic.Bool

	// Owned by readLoop (and NewBroadcaster before it starts): the welcome
	// body of the cycle on the air, encoded once per *Cycle — a swap airs a
	// new pointer — with only Start patched per hello, and the buffer every
	// control reply is framed in.
	wcCycle *broadcast.Cycle
	wcBody  []byte
	ctl     []byte
}

// remote is one receiver's server-side state.
type remote struct {
	addr netip.AddrPort
	sub  *station.Sub
	// want is the lowest position the receiver still needs; limit the
	// exclusive credit bound it granted. Both only ever advance.
	want  atomic.Int64
	limit atomic.Int64
	// credit wakes a pump parked on exhausted credit.
	credit chan struct{}
	// lastSeen is the monotonic time (ns since broadcaster start) of the
	// remote's last control frame; the janitor expires silent remotes.
	lastSeen atomic.Int64
	// done is closed, and gone set just before, when the remote is
	// released: a parked pump waits on done, a streaming one polls gone
	// once per position (a select there costs more than the frame).
	done      chan struct{}
	gone      atomic.Bool
	closeOnce sync.Once
}

// NewBroadcaster binds addr (e.g. ":9040", "127.0.0.1:0") and starts
// serving the station's broadcast to remote receivers. The station must be
// on the air (remotes subscribe at hello time). Close releases the socket
// and every remote subscription.
func NewBroadcaster(addr string, st *station.Station, opts BroadcasterOptions) (*Broadcaster, error) {
	if st == nil {
		return nil, fmt.Errorf("wire: nil station")
	}
	if opts.IdleTimeout <= 0 {
		opts.IdleTimeout = 30 * time.Second
	}
	b := &Broadcaster{
		st:      st,
		opts:    opts,
		remotes: make(map[netip.AddrPort]*remote),
	}
	// Refuse up front a cycle whose kind schedule cannot be welcomed,
	// rather than silently ignoring every hello later.
	if _, err := b.welcome(0); err != nil {
		return nil, err
	}
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	// Control frames from a whole fleet of remotes funnel into this one
	// socket; ask for room so a want burst is not dropped (best effort —
	// a lost want is re-sent by the receiver's silence timeout anyway).
	conn.SetReadBuffer(1 << 20)
	b.conn, b.started = conn, time.Now()
	b.gso.Store(gsoSupported(conn))
	b.ctx, b.cancel = context.WithCancel(context.Background())
	b.wg.Add(2)
	go b.readLoop()
	go b.janitor()
	return b, nil
}

// welcome frames the handshake reply for a subscription starting at start:
// the cycle geometry and the RLE kind schedule the receiver serves wire
// losses from. The frame is valid until the next control reply.
func (b *Broadcaster) welcome(start int) ([]byte, error) {
	if cyc := b.st.Cycle(); cyc != b.wcCycle {
		var kinds schedule
		for i := range cyc.Packets {
			kinds = kinds.add(cyc.Packets[i].Kind)
		}
		body, err := appendWelcomeBody(nil, welcome{
			CycleLen: uint32(cyc.Len()),
			Version:  cyc.Version,
			Rate:     uint32(b.st.Rate()),
			Kinds:    kinds,
		})
		if err != nil {
			return nil, err
		}
		b.wcCycle, b.wcBody = cyc, body
	}
	binary.LittleEndian.PutUint64(b.wcBody, uint64(start))
	b.ctl = packet.AppendEnvelope(b.ctl[:0], frameWelcome, b.wcBody)
	return b.ctl, nil
}

// Addr returns the bound socket address (useful with ":0").
func (b *Broadcaster) Addr() net.Addr { return b.conn.LocalAddr() }

// Remotes returns the number of currently subscribed remote receivers.
func (b *Broadcaster) Remotes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.remotes)
}

// Close stops serving: every remote gets a best-effort bye, every pump
// exits and releases its station subscription, and the socket closes.
// Safe to call more than once.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	remotes := make([]*remote, 0, len(b.remotes))
	for _, r := range b.remotes {
		remotes = append(remotes, r)
	}
	b.mu.Unlock()

	bye := appendBye(nil)
	for _, r := range remotes {
		b.conn.WriteToUDPAddrPort(bye, r.addr)
		r.shut()
	}
	b.cancel()
	// Closing the socket unblocks the read loop; pump writes after this
	// point fail harmlessly (they check the error before counting).
	b.conn.Close()
	b.wg.Wait()
}

// readLoop is the control plane: one goroutine owns every inbound datagram
// (hello, want, bye) and mutates remote credit; pumps only read it.
func (b *Broadcaster) readLoop() {
	defer b.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, raddr, err := b.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if b.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient (e.g. ICMP-induced) read error
		}
		ftype, body, err := packet.OpenEnvelope(buf[:n])
		if err != nil {
			obsCorrupt.Inc()
			continue
		}
		switch ftype {
		case frameHello:
			window, err := parseHello(body)
			if err != nil {
				continue
			}
			b.hello(raddr, int64(window))
		case frameWant:
			pos, limit, err := parseWant(body)
			if err != nil {
				continue
			}
			b.mu.Lock()
			r := b.remotes[raddr]
			b.mu.Unlock()
			if r != nil {
				r.touch(b.started)
				r.advance(int64(pos), int64(limit))
			}
		case frameBye:
			b.mu.Lock()
			r := b.remotes[raddr]
			b.mu.Unlock()
			if r != nil {
				r.shut()
			}
		}
	}
}

// hello subscribes a new remote (or re-welcomes a known one whose welcome
// datagram was lost) and answers with the stream geometry.
func (b *Broadcaster) hello(raddr netip.AddrPort, window int64) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	if r := b.remotes[raddr]; r != nil {
		b.mu.Unlock()
		r.touch(b.started)
		if w, err := b.welcome(r.sub.Start()); err == nil {
			b.conn.WriteToUDPAddrPort(w, raddr)
		}
		return
	}
	if b.opts.MaxRemotes > 0 && len(b.remotes) >= b.opts.MaxRemotes {
		n := len(b.remotes)
		b.mu.Unlock()
		b.refuse(raddr, n)
		return
	}
	b.mu.Unlock()

	// Subscribe outside the lock (the station takes its own); a hello
	// while the station is off the air gets no welcome — the receiver's
	// dial retry reports it as nobody answering. A full station is a typed
	// refusal: the client was shed, not lost.
	sub, err := b.st.Subscribe(0, 0)
	if err != nil {
		if errors.Is(err, station.ErrFull) {
			b.refuse(raddr, b.Remotes())
		}
		return
	}
	w, err := b.welcome(sub.Start())
	if err != nil {
		sub.Close()
		return
	}
	r := &remote{
		addr:   raddr,
		sub:    sub,
		credit: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	r.want.Store(int64(sub.Start()))
	r.limit.Store(int64(sub.Start()) + window)
	r.touch(b.started)

	b.mu.Lock()
	if b.closed || b.remotes[raddr] != nil {
		b.mu.Unlock()
		sub.Close()
		return
	}
	if b.opts.MaxRemotes > 0 && len(b.remotes) >= b.opts.MaxRemotes {
		// Lost an admission race while subscribing outside the lock.
		n := len(b.remotes)
		b.mu.Unlock()
		sub.Close()
		b.refuse(raddr, n)
		return
	}
	b.remotes[raddr] = r
	b.mu.Unlock()
	obsHellos.Inc()
	obsRemotes.Inc()

	// Welcome before the first data datagram: on an ordered path the
	// receiver then always completes its handshake before the stream
	// starts (a reordering network can still overtake it, in which case
	// the overtaken positions surface as ordinary wire gaps).
	b.conn.WriteToUDPAddrPort(w, raddr)
	b.wg.Add(1)
	go b.pump(r)
}

// refuse sheds a hello with a typed busy frame: the client learns it was
// refused (and fails fast with ErrRefused) instead of burning its whole
// dial deadline on silence.
func (b *Broadcaster) refuse(raddr netip.AddrPort, remotes int) {
	obsBusy.Inc()
	b.ctl = appendBusy(b.ctl[:0], uint32(remotes), uint32(b.opts.MaxRemotes))
	b.conn.WriteToUDPAddrPort(b.ctl, raddr)
}

// touch stamps the remote's liveness clock.
func (r *remote) touch(epoch time.Time) { r.lastSeen.Store(int64(time.Since(epoch))) }

// advance folds one credit update; positions only move forward.
func (r *remote) advance(pos, limit int64) {
	for {
		w := r.want.Load()
		if pos <= w || r.want.CompareAndSwap(w, pos) {
			break
		}
	}
	for {
		l := r.limit.Load()
		if limit <= l || r.limit.CompareAndSwap(l, limit) {
			break
		}
	}
	select {
	case r.credit <- struct{}{}:
	default:
	}
}

// shut releases the remote; the pump notices via gone or done and
// unsubscribes.
func (r *remote) shut() {
	r.closeOnce.Do(func() {
		r.gone.Store(true)
		close(r.done)
	})
}

// gsoSegments is the most full datagrams one data write carries: the pump
// hands the kernel a run of them in one segmented write (UDP GSO), which
// cuts it into datagrams on segSize boundaries. Eight is the middle of the
// flat part of the sweep in EXPERIMENTS.md "One write per run of
// datagrams": a run much longer than that holds a whole credit window back
// while the receiver idles.
const gsoSegments = 8

// segSize is the length of a full data datagram, maxFrames frames: the one
// segment size of every segmented write.
const segSize = maxFrames * packet.MaxFrameSize

// batchPool recycles pump batches across remotes: a session dials one
// remote per query.
var batchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, gsoSegments*segSize)
	return &b
}}

// pump streams the remote's subscription onto the socket: one frame per
// position, sequential from the subscribe position, skipping ahead when the
// receiver's want jumps (the remote radio slept) and pausing whenever credit
// runs out.
//
// Frames travel back to back in one datagram, and full datagrams back to
// back in one write — the cost of a send is per write, not per byte — under
// one rule: the pump never waits, for credit or for the station, while it
// holds an unsent frame. A batch therefore leaves when (a) it holds
// gsoSegments full datagrams, or its last datagram is closed short of full,
// (b) the subscription cannot serve the next position without waiting
// (station.Sub.Ready), or (c) credit is exhausted. A datagram is closed when
// another full frame would not fit segSize. No timer is involved: the
// pump declares the remote's credit window on its subscription
// (station.Sub.Prefetch) whenever the granted limit moves, so on a virtual
// clock its first At pulls the clock to the limit and the rest of the window
// is ready, so datagrams and batches fill; on a paced clock a position airs
// once per airtime, so each is sent alone the moment it airs.
func (b *Broadcaster) pump(r *remote) {
	defer b.wg.Done()
	defer b.forget(r)
	defer r.sub.Close()

	cycleLen := uint32(b.st.Len())
	pooled := batchPool.Get().(*[]byte)
	batch := (*pooled)[:0]
	defer func() {
		*pooled = batch[:0]
		batchPool.Put(pooled)
	}()
	frames := 0 // frames in batch
	open := 0   // where the datagram being filled starts in batch
	flush := func() {
		if frames > 0 {
			b.send(batch, frames, r.addr)
		}
		batch, frames, open = batch[:0], 0, 0
	}
	pos := r.sub.Start()
	var declared int64 // the limit the subscription's window ends at
	for {
		// A remote released with frames still batched loses them with the
		// rest of its stream: nothing is written for a receiver that is gone.
		// (Close shuts every remote before it cancels b.ctx.)
		if r.gone.Load() {
			return
		}
		// Credit gate: stream only positions the receiver asked for
		// (want <= pos < limit). While the pump waits for credit the
		// subscription stays live, exactly like an in-process subscriber
		// between At calls: it holds a virtual clock at the limit it
		// declared, so the remote misses nothing (on a paced clock real
		// time does not wait, and positions more than Buffer behind the air
		// surface as losses, like any slow radio). A remote that stops
		// granting credit without a bye is expired by the janitor, which
		// bounds how long it can hold the air.
		for {
			if w := r.want.Load(); int64(pos) < w {
				pos = int(w)
			}
			if l := r.limit.Load(); int64(pos) < l {
				if l != declared {
					r.sub.Prefetch(pos, int(l)-pos)
					declared = l
				}
				break
			}
			flush() // rule (c): everything below limit is out before parking
			select {
			case <-r.credit:
			case <-r.done:
				return
			case <-b.ctx.Done():
				return
			}
		}
		if frames > 0 && !r.sub.Ready(pos) {
			flush() // rule (b): At is about to wait for the air
		}
		p, ok := r.sub.At(pos)
		if ok {
			n := len(batch)
			batch = packet.AppendFrame(batch, uint64(pos), cycleLen, p)
			if b.opts.Corrupt != nil {
				batch = append(batch[:n], b.opts.Corrupt(uint64(pos), batch[n:])...)
			}
			if len(batch) > n {
				frames++
			}
			if d := len(batch) - open; d+packet.MaxFrameSize > segSize {
				open = len(batch)
				if d < segSize || open == gsoSegments*segSize {
					flush() // rule (a)
				}
			}
		}
		// A position the subscription itself lost (a paced-clock miss) is
		// not sent: the receiver sees the wire skip past it and serves it
		// as a lost reception, same as any dropped frame.
		pos++
	}
}

// send writes one batch of frames to addr: full segSize datagrams back to
// back, the last one possibly shorter. Where the kernel segments, that is
// one write; elsewhere, or once the path refuses a segmented write, one
// write per datagram. The datagrams on the wire are the same either way.
// A write that fails for any other reason (the socket closed under the
// pump) loses the batch uncounted.
func (b *Broadcaster) send(batch []byte, frames int, addr netip.AddrPort) {
	datagrams := (len(batch) + segSize - 1) / segSize
	if datagrams > 1 && b.gso.Load() {
		_, _, err := b.conn.WriteMsgUDPAddrPort(batch, segmentOOB, addr)
		if err == nil {
			obsWrites.Inc()
			obsSent.Add(int64(datagrams))
			obsFrames.Add(int64(frames))
			return
		}
		if !gsoRefused(err) {
			return
		}
		b.gso.Store(false)
	}
	for off := 0; off < len(batch); off += segSize {
		if _, err := b.conn.WriteToUDPAddrPort(batch[off:min(off+segSize, len(batch))], addr); err != nil {
			return
		}
		obsWrites.Inc()
		obsSent.Inc()
	}
	obsFrames.Add(int64(frames))
}

// forget removes the remote from the table once its pump has exited.
func (b *Broadcaster) forget(r *remote) {
	r.shut()
	b.mu.Lock()
	if b.remotes[r.addr] == r {
		delete(b.remotes, r.addr)
	}
	b.mu.Unlock()
	obsRemotes.Dec()
}

// janitor expires remotes that stopped sending control traffic without a
// bye: their subscriptions must not pin the station's epoch history (or,
// parked forever, its subscriber table).
func (b *Broadcaster) janitor() {
	defer b.wg.Done()
	tick := time.NewTicker(b.opts.IdleTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-b.ctx.Done():
			return
		case <-tick.C:
		}
		cutoff := int64(time.Since(b.started)) - int64(b.opts.IdleTimeout)
		b.mu.Lock()
		var expired []*remote
		for _, r := range b.remotes {
			if r.lastSeen.Load() < cutoff {
				expired = append(expired, r)
			}
		}
		b.mu.Unlock()
		for _, r := range expired {
			obsExpired.Inc()
			r.shut()
		}
	}
}
