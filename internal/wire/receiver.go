package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/transport"
)

// Receiver-side instruments (DESIGN.md §12).
var (
	obsDead = obs.GetCounter("air_wire_dead_total",
		"receivers that declared the broadcaster gone (silence or bye past every retry and redial)")
	obsRedials = obs.GetCounter("air_wire_redials_total",
		"mid-stream re-dial attempts after broadcaster silence or bye")
	obsRestarts = obs.GetCounter("air_wire_restarts_total",
		"re-dials that found a broadcaster with a different cycle (stale subscription)")
)

// Typed receiver failures. They surface through broadcast.AbortFeed (for
// mid-query transport death) or as ordinary Dial errors; either way callers
// classify with errors.Is.
var (
	// ErrDead marks a broadcaster gone for good: silent past the retry
	// budget (and every configured redial), or it said bye and no redial
	// brought it back. Distinct from injected simulator loss, which never
	// kills a feed.
	ErrDead = errors.New("wire: broadcaster gone")
	// ErrRefused marks an admission refusal: the broadcaster answered with
	// a busy frame instead of a welcome. The client was shed, not lost.
	ErrRefused = errors.New("wire: broadcaster at capacity")
	// ErrRestarted marks a successful redial onto a broadcaster whose cycle
	// geometry (length or version) no longer matches the subscription: the
	// partial answer the client holds was built on air that no longer
	// exists. The receiver is stale; the session must re-attach fresh.
	ErrRestarted = errors.New("wire: broadcaster restarted with a different cycle")
	// errClosed aborts a query that reads a receiver after Close.
	errClosed = errors.New("wire: receiver used after Close")
)

// ReceiverOptions tune one wire subscription: the dial options of the
// transport seam, defined there so that layers above the seam (the fleet's
// Options.Wire) can carry them without importing this package.
type ReceiverOptions = transport.DialOptions

// Receiver is a remote subscription to a wire broadcast: a broadcast.Feed
// (and Clocked, Prefetcher and Refreshable) over a connected UDP socket, so
// the ordinary Tuner — and every scheme client above it — runs on a remote
// broadcast exactly as on an in-process one. The receiver owns its socket
// reads: like station.Sub, it is single-goroutine on the client side,
// while the broadcaster side is concurrency-safe.
//
// Loss accounting mirrors the in-process feeds: a position the wire
// skipped past (its datagram dropped by the network or overtaken by
// reordering, its frame rejected by CRC or stranded behind a damaged frame
// boundary) is served as a corrupted reception carrying the correct packet
// kind from the welcome's kind schedule, counted in WireLost and — through
// the tuner that listened for it — in Tuner.Lost.
// Injected loss is applied at serve time on intact positions, keeping the
// received frame's kind, so a loopback receiver is bit-identical to an
// offline replay with equal (start, loss, seed).
//
// Position bookkeeping across redials: the client's positions are fixed at
// the original subscription's coordinates; a redial that lands on a later
// wire position re-anchors by a whole number of cycles (offset ≡ 0 mod L),
// so client position p is always served wire position p+offset with an
// identical cycle slot — content correctness survives the reconnect, and
// the client never observes positions moving backwards.
type Receiver struct {
	conn  *net.UDPConn
	raddr *net.UDPAddr
	opts  ReceiverOptions

	start    int
	cycleLen int
	version  uint32
	rate     int
	kinds    schedule

	limit  int // exclusive credit bound granted so far (client coords)
	clock  int // next global tick: everything below is served or slept over
	offset int // wire position minus client position; a multiple of cycleLen

	pending    packet.Packet
	pendingPos int
	hasPending bool
	view       *spanView // Span's, from viewPool until Close

	corrupted    int // integrity failures dropped over: a bad CRC, or a lost frame boundary however many frames it stranded
	wireLost     int
	redials      int // mid-stream reconnection attempts
	unproductive int // redials since the last data frame actually arrived
	stale        bool

	dialDraw uint64  // monotonic draw index for backoff jitter
	bufs     *rxBufs // from rxPool until Close
	rest     []byte  // frames of the current datagram not yet walked (aliases bufs)
	more     []byte  // the datagrams of the last read after the current one (aliases bufs)
	seg      int     // the length of each datagram in more, the last one excepted
	sendBuf  []byte
	closed   bool
}

// rxBufs is what a receiver reads the socket into: a data buffer that
// holds the largest run of datagrams the kernel coalesces into one read
// (UDP GRO), and room for the control message that says where they split.
type rxBufs struct {
	data [1 << 16]byte
	oob  [64]byte
}

// rxPool recycles read buffers across receivers: a session dials one
// receiver per query, and 64 KiB per dial would be most of what a query
// allocates.
var rxPool = sync.Pool{New: func() any { return new(rxBufs) }}

// Dial subscribes to the wire broadcaster at addr (host:port) and performs
// the hello/welcome handshake. The returned receiver tunes in at Start(),
// the absolute position of the first packet its subscription covers; wrap
// it in a tuner with broadcast.NewFeedTuner(rx, rx.Start()) and Close it
// when the query is done. A broadcaster at capacity answers with a busy
// frame, surfaced as an error wrapping ErrRefused.
func Dial(addr string, opts ReceiverOptions) (*Receiver, error) {
	if opts.Loss < 0 || opts.Loss >= 1 {
		return nil, fmt.Errorf("wire: loss rate %v outside [0,1)", opts.Loss)
	}
	if opts.Window <= 0 {
		opts.Window = 256
	}
	if opts.Window < 16 {
		opts.Window = 16
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.Retries <= 0 {
		opts.Retries = 4
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = time.Duration(opts.Retries) * opts.Timeout
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	r := &Receiver{
		raddr: raddr,
		opts:  opts,
		bufs:  rxPool.Get().(*rxBufs),
	}
	if err := r.connect(); err != nil {
		r.release()
		return nil, err
	}
	w, err := r.exchangeHello(time.Now().Add(opts.DialTimeout))
	if err != nil {
		// The hello may have landed with every welcome lost on the way
		// back; a bye releases the half-made subscription instead of
		// leaving a zombie remote parked on the broadcaster.
		r.abandon()
		r.release()
		return nil, err
	}
	r.start = int(w.Start)
	r.cycleLen = int(w.CycleLen)
	r.version = w.Version
	r.rate = int(w.Rate)
	r.kinds = w.Kinds
	r.clock = r.start
	r.limit = r.start + r.opts.Window // granted in the hello
	return r, nil
}

// connect dials a fresh socket to the broadcaster.
func (r *Receiver) connect() error {
	conn, err := net.DialUDP("udp", nil, r.raddr)
	if err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	// Ask the kernel for room to hold a full credit window of datagrams
	// whatever their fill (readBufferFor). Best effort: the kernel clamps
	// the request to rmem_max, and any remaining shortfall surfaces honestly
	// as wire loss, never as a wrong answer.
	conn.SetReadBuffer(readBufferFor(r.opts.Window))
	// Let one read return a run of datagrams (best effort too: without it
	// a read returns one).
	enableGRO(conn)
	r.conn = conn
	return nil
}

// read reads the socket once: one datagram, or a run of them the kernel
// coalesced, split at the datagram length it reports. The first datagram
// is left in rest, the others in more; it returns how many there are.
func (r *Receiver) read() (int, error) {
	n, oobn, _, _, err := r.conn.ReadMsgUDPAddrPort(r.bufs.data[:], r.bufs.oob[:])
	if err != nil {
		return 0, err
	}
	seg := groSegment(r.bufs.oob[:oobn])
	if seg <= 0 || seg > n {
		seg = n
	}
	r.seg = seg
	r.rest, r.more = r.bufs.data[:seg], r.bufs.data[seg:n]
	if seg == 0 {
		return 1, nil
	}
	return (n + seg - 1) / seg, nil
}

// nextDatagram moves rest on to the next datagram of the last read.
func (r *Receiver) nextDatagram() {
	k := min(r.seg, len(r.more))
	r.rest, r.more = r.more[:k], r.more[k:]
}

// readBufferFor sizes the socket receive buffer for a credit window of w
// positions in flight. The kernel charges a datagram its skb truesize, not
// its length: ~832 bytes for a lone ~155-byte frame, ~2.3KB for a full
// maxDatagram one. A 256-position window is ~29 full datagrams (~66KB) when
// the pump finds every frame ready, and 256 single-frame ones (~213KB — by
// itself the whole default rcvbuf) when it finds none, and a refill burst
// arrives while up to half the previous window is still queued. A run of
// datagrams that arrives coalesced (UDP GRO; on loopback a segmented write
// is delivered whole) is one buffer in the queue, not one per datagram, so
// it only moves a stream toward the cheap end. Sizing for 2x the window at
// a conservative 4KB per position covers both ends and everything between,
// with a 1MB floor.
func readBufferFor(w int) int {
	n := 2 * w * 4096
	if n < 1<<20 {
		n = 1 << 20
	}
	return n
}

// jitter returns the deterministic backoff multiplier in [0.5, 1.5) for
// this receiver's n-th dial draw: the splitmix64 finalizer over (seed, n),
// the repo's standard determinism discipline. Per-receiver seeds decorrelate
// a fleet's backoff schedules — the whole point of jitter.
func jitter(seed int64, n uint64) float64 {
	z := broadcast.SplitMix64(uint64(seed) + n*0x9E3779B97F4A7C15)
	return 0.5 + float64(z>>11)/float64(1<<53)
}

// exchangeHello drives one hello/welcome handshake on the current socket,
// re-sending the hello with capped jittered exponential backoff until the
// welcome arrives or the deadline passes. A busy frame fails fast with
// ErrRefused — the broadcaster answered, it just will not have us.
func (r *Receiver) exchangeHello(deadline time.Time) (welcome, error) {
	hello := appendHello(nil, uint32(r.opts.Window))
	base := r.opts.Timeout / 8
	if base < 20*time.Millisecond {
		base = 20 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		if _, err := r.conn.Write(hello); err != nil {
			return welcome{}, fmt.Errorf("wire: hello: %w", err)
		}
		// Exponentially widening, jittered listen window for this hello,
		// capped at Timeout and at the overall dial deadline.
		window := base << min(attempt, 6)
		if window > r.opts.Timeout {
			window = r.opts.Timeout
		}
		window = time.Duration(float64(window) * jitter(r.opts.Seed, r.dialDraw))
		r.dialDraw++
		wait := time.Now().Add(window)
		if wait.After(deadline) {
			wait = deadline
		}
		for {
			r.conn.SetReadDeadline(wait)
			if _, err := r.read(); err != nil {
				break // window over (or ICMP refusal): re-hello
			}
			// Control frames travel alone; anything after the first envelope
			// is a data datagram's tail, discarded with its head below.
			var ftype uint8
			var body []byte
			env, _, err := packet.SplitEnvelope(r.rest)
			r.rest = nil
			if err == nil {
				ftype, body, err = packet.OpenEnvelope(env)
			}
			if err != nil {
				r.corrupted++
				obsCorrupt.Inc()
				continue
			}
			switch ftype {
			case frameWelcome:
				w, err := parseWelcome(body)
				if err != nil {
					continue
				}
				// Datagrams read together with the welcome are the start of
				// the stream: they stay in more for At.
				return w, nil
			case frameBusy:
				remotes, max, err := parseBusy(body)
				if err != nil {
					continue
				}
				return welcome{}, fmt.Errorf("%w (%d/%d remotes) at %v", ErrRefused, remotes, max, r.raddr)
			default:
				// A data datagram that overtook the welcome on a reordering
				// network; discarding it surfaces its positions as ordinary
				// wire gaps once the stream is up.
				continue
			}
		}
		if !time.Now().Before(deadline) {
			return welcome{}, fmt.Errorf("wire: no broadcaster answering at %v: %w", r.raddr, ErrDead)
		}
	}
}

// Start returns the tune-in position: the first absolute position this
// subscription is guaranteed to cover.
func (r *Receiver) Start() int { return r.start }

// Len returns the cycle length in packets (broadcast.Feed). Wire
// deployments serve a static cycle, so the length learned at handshake
// holds for the subscription's lifetime; a redial that lands on a
// different length marks the receiver stale instead of changing it.
func (r *Receiver) Len() int { return r.cycleLen }

// Version returns the cycle version the broadcaster welcomed us onto.
func (r *Receiver) Version() uint32 { return r.version }

// Rate returns the bit rate queries over this subscription are costed at.
func (r *Receiver) Rate() int { return r.rate }

// Clock returns the next global tick (broadcast.Clocked): every tick so
// far has been served or slept over. On a single wire channel the global
// clock is the position stream itself, so tuner latency over a Receiver
// equals the plain-feed accounting packet for packet.
func (r *Receiver) Clock() int { return r.clock }

// TuneIn returns the tick the subscription began at (latency zero point).
func (r *Receiver) TuneIn() int { return r.start }

// Stale reports whether a redial found the air changed underneath the
// subscription (broadcast.Refreshable): the cycle geometry of the
// restarted broadcaster no longer matches what this receiver was built on,
// so it must not be re-entered — the session re-attaches a fresh one.
func (r *Receiver) Stale() bool { return r.stale }

// WireLost returns how many positions this receiver served as lost
// because the wire skipped past them — dropped, corrupted or reordered
// datagrams, as experienced by the listener. A subset of what the tuner
// on top reports as Lost (which adds the injected-loss draw), so
// Lost - WireLost isolates injected simulator loss, mirroring the
// Missed/Lost split of the in-process station.
func (r *Receiver) WireLost() int { return r.wireLost }

// Prefetch declares an upcoming contiguous listen (broadcast.Prefetcher):
// the receiver grants the broadcaster credit for the whole span up front,
// so a long sequential read never stalls on mid-span credit refresh.
func (r *Receiver) Prefetch(abs, n int) {
	if r.closed {
		return
	}
	if lim := abs + n + r.opts.Window/2; lim > r.limit {
		r.sendWant(abs, lim)
	}
}

// maxFrames is the most data frames one datagram carries, and the most
// positions one Span serves.
const maxFrames = maxDatagram / packet.MaxFrameSize

// spanView holds the packets of one Span, views of bufs like pending.
type spanView [maxFrames]packet.Packet

// viewPool recycles span views across receivers: a session dials one
// receiver per query, and a pooled view keeps that dial at the allocation
// a receiver cost before it served spans.
var viewPool = sync.Pool{New: func() any { return new(spanView) }}

// Span serves the positions from abs on as one view (broadcast.Spanner).
// It first credits the n positions asked for, as Prefetch does. Then it
// serves the first position as At does, blocking on the socket if it must,
// and after it every position it can serve without another read, up to
// maxFrames: the in-order frames left in the current read, a held frame,
// the gaps before it. It stops at a frame it would have to act on (a bye)
// and at the read's end, leaving it to the next Span or At. Each position's
// credit, clock and loss bookkeeping is At's.
//
//air:noalloc
func (r *Receiver) Span(abs, n int) ([]packet.Packet, uint64) {
	if r.view == nil {
		r.view = viewPool.Get().(*spanView)
	}
	// Credit the run before reading it: a want from abs also tells the
	// broadcaster to skip what the radio slept over.
	r.Prefetch(abs, n)
	var lost uint64
	k := 0
	for k < min(n, maxFrames) {
		p, ok, got := r.next(abs+k, k == 0)
		if !got {
			break
		}
		r.view[k] = p
		if !ok {
			lost |= 1 << k
		}
		k++
	}
	return r.view[:k], lost
}

// At blocks until the wire has moved past absolute position abs and
// returns its packet (broadcast.Feed). A datagram carries one or more
// frames back to back, and one read may return a run of datagrams; At walks
// them in order and reads the socket only when the run is used up. Frames
// below abs were slept over
// and are discarded; a frame beyond abs means the wire lost abs, which is
// served as a corrupted reception with the correct kind. A frame failing
// its CRC is dropped alone; a frame boundary that cannot be found takes the
// rest of its datagram (not of the read) with it — either way the positions
// surface as gaps.
// If the broadcaster says bye or falls silent past the retry budget, the
// receiver re-dials up to Redial times (fresh socket, fresh handshake,
// stream re-anchored); past that the feed aborts the query via
// broadcast.AbortFeed with ErrDead — a dead wire, unlike a stopped
// in-process station, has no cycle to degrade to.
//
// The served payload is a view of the receive buffer, valid until the next
// At (broadcast.Feed) or Close: the receiver copies nothing per position.
//
//air:noalloc
func (r *Receiver) At(abs int) (packet.Packet, bool) {
	p, ok, _ := r.next(abs, true)
	return p, ok
}

// next is At, and with block false At's non-blocking prefix: it reports
// got false, having consumed nothing it would have to act on, where At
// would read the socket or redial.
func (r *Receiver) next(abs int, block bool) (p packet.Packet, ok, got bool) {
	if r.closed {
		broadcast.AbortFeed(errClosed)
	}
	// Extend credit before any blocking read: the broadcaster streams only
	// what we have asked for, and asking early (half a window before the
	// bound) keeps the stream ahead of the reads.
	if abs+r.opts.Window/2 >= r.limit {
		r.sendWant(abs, abs+r.opts.Window)
	}
	if r.hasPending {
		switch {
		case r.pendingPos == abs:
			r.hasPending = false
			p, ok = r.serve(abs, r.pending)
			return p, ok, true
		case r.pendingPos > abs:
			p, ok = r.gap(abs)
			return p, ok, true
		default:
			r.hasPending = false
		}
	}
	timeouts := 0
	for {
		if len(r.rest) == 0 && len(r.more) > 0 {
			r.nextDatagram()
		}
		if len(r.rest) == 0 {
			if !block {
				return p, false, false
			}
			r.conn.SetReadDeadline(time.Now().Add(r.opts.Timeout))
			datagrams, err := r.read()
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					timeouts++
					if timeouts < r.opts.Retries {
						// The want may have been lost, or the stream since it —
						// up to the limit, where the pump now waits. A gap only
						// shows when a later frame arrives, so grant credit past
						// the old limit and listen again.
						r.sendWant(abs, max(r.limit, abs+r.opts.Window)+r.opts.Window/2)
						continue
					}
				}
				r.redial(abs, err)
				timeouts = 0
				continue
			}
			obsRecv.Add(int64(datagrams))
		}
		datagram := r.rest
		env, rest, err := packet.SplitEnvelope(r.rest)
		if err != nil {
			// No boundary to go by: whatever else the datagram carried cannot
			// be located, and those positions surface as gaps. The datagrams
			// read with it keep their own boundaries.
			r.rest = nil
			r.corrupted++
			obsCorrupt.Inc()
			continue
		}
		r.rest = rest
		ftype, body, err := packet.OpenEnvelope(env)
		if err != nil {
			r.corrupted++
			obsCorrupt.Inc()
			continue
		}
		switch ftype {
		case packet.FrameData:
		case frameWelcome:
			continue // duplicate handshake reply
		case frameBye:
			if !block {
				r.rest = datagram // left for the read that acts on it
				return p, false, false
			}
			r.redial(abs, nil)
			timeouts = 0
			continue
		default:
			continue
		}
		f, err := packet.DecodeData(body)
		if err != nil {
			r.corrupted++
			obsCorrupt.Inc()
			continue
		}
		timeouts = 0
		r.unproductive = 0 // real data: the stream is alive again
		switch pos := int(f.Pos) - r.offset; {
		case pos < abs:
			// Slept over, or a duplicate; the radio was off for it.
		case pos == abs:
			p, ok = r.serve(abs, f.Pkt)
			return p, ok, true
		default:
			// Held as a view of bufs: no socket read happens before it
			// is served or dropped.
			r.pending, r.pendingPos, r.hasPending = f.Pkt, pos, true
			p, ok = r.gap(abs)
			return p, ok, true
		}
	}
}

// abandon gives up on the current socket: a best-effort bye first, so the
// broadcaster releases whatever remote this socket had (a zombie remote
// parks its pump and, on a virtual clock, wedges the whole station until
// the janitor reaps it), then the close.
func (r *Receiver) abandon() {
	r.sendBuf = appendBye(r.sendBuf[:0])
	r.conn.Write(r.sendBuf)
	r.conn.Close()
}

// redial tears the dead socket down and reconnects, up to opts.Redial
// attempts; readErr is the read error that killed the stream, nil when the
// broadcaster said bye. On success the subscription is re-anchored at
// client position abs and At's read loop resumes; on exhaustion (or a
// changed broadcast) the feed aborts, so redial only returns after a
// successful reconnect.
//
// The budget is charged per stretch of silence, not per call: redials since
// the last received data frame accumulate in r.unproductive (reset by At on
// real data), so a broadcaster that answers handshakes but never streams —
// a wedged station behind a live socket — cannot string a receiver along
// with an endless welcome-timeout-welcome loop.
func (r *Receiver) redial(abs int, readErr error) {
	cause := fmt.Errorf("wire: broadcaster %v closed the stream at position %d", r.raddr, abs)
	if readErr != nil {
		cause = fmt.Errorf("wire: broadcast from %v went silent at position %d: %w", r.raddr, abs, readErr)
	}
	r.abandon()
	r.rest, r.more = nil, nil // the handshake reuses bufs; the old stream's tail is void
	if r.opts.Redial <= 0 {
		obsDead.Inc()
		broadcast.AbortFeed(fmt.Errorf("%w: %v", ErrDead, cause))
	}
	if r.unproductive >= r.opts.Redial {
		obsDead.Inc()
		broadcast.AbortFeed(fmt.Errorf("%w: %d redials produced no data: %v",
			ErrDead, r.unproductive, cause))
	}
	base := r.opts.Timeout / 8
	if base < 20*time.Millisecond {
		base = 20 * time.Millisecond
	}
	for attempt := 0; attempt < r.opts.Redial; attempt++ {
		r.redials++
		r.unproductive++
		obsRedials.Inc()
		if attempt > 0 {
			// The broadcaster just refused to answer a whole DialTimeout of
			// hellos; pause (jittered, widening) before the next storm.
			pause := time.Duration(float64(base<<min(attempt, 6)) * jitter(r.opts.Seed, r.dialDraw))
			r.dialDraw++
			time.Sleep(pause)
		}
		if err := r.connect(); err != nil {
			continue
		}
		w, err := r.exchangeHello(time.Now().Add(r.opts.DialTimeout))
		if err != nil {
			r.abandon()
			if errors.Is(err, ErrRefused) {
				// The broadcaster is back but shedding load; a shed client
				// must not hammer it with more redials.
				broadcast.AbortFeed(fmt.Errorf("wire: redial refused: %w", err))
			}
			continue
		}
		if int(w.CycleLen) != r.cycleLen || w.Version != r.version {
			// The air changed underneath us: whatever partial answer the
			// client holds was built on a cycle that no longer exists.
			r.stale = true
			obsRestarts.Inc()
			broadcast.AbortFeed(fmt.Errorf("%w: cycle %d v%d is now %d v%d",
				ErrRestarted, r.cycleLen, r.version, w.CycleLen, w.Version))
		}
		// Re-anchor: the new subscription covers wire positions >= w.Start.
		// Advance the offset by whole cycles until client position abs maps
		// at or past it — same cycle slots, so the client's reception plan
		// and partial answer stay valid; the skipped air is just more
		// latency, which the wall clock already charged.
		if need := int(w.Start) - (abs + r.offset); need > 0 {
			r.offset += (need + r.cycleLen - 1) / r.cycleLen * r.cycleLen
		}
		r.hasPending = false
		r.limit = abs
		r.sendWant(abs, abs+r.opts.Window)
		return
	}
	obsDead.Inc()
	broadcast.AbortFeed(fmt.Errorf("%w after %d redials: %v", ErrDead, r.opts.Redial, cause))
}

// serve returns the received packet at abs, applying the injected-loss
// draw exactly as the simulator does (the kind survives, the payload does
// not). The draw runs on client coordinates, so a receiver that redialed
// mid-query keeps the same deterministic loss pattern it started with.
func (r *Receiver) serve(abs int, p packet.Packet) (packet.Packet, bool) {
	r.clock = abs + 1
	if broadcast.Lost(uint64(r.opts.Seed), abs, r.opts.Loss) {
		return packet.Packet{Kind: p.Kind}, false
	}
	return p, true
}

// gap serves a position the wire lost as a corrupted reception with the
// correct kind from the welcome schedule. (offset is a multiple of the
// cycle length, so client coordinates index the schedule directly.)
func (r *Receiver) gap(abs int) (packet.Packet, bool) {
	r.clock = abs + 1
	r.wireLost++
	obsGaps.Inc()
	return packet.Packet{Kind: r.kinds.at(abs % r.cycleLen)}, false
}

// sendWant grants the broadcaster credit to stream client positions
// [pos, limit), translated to wire coordinates on the way out.
func (r *Receiver) sendWant(pos, limit int) {
	r.sendBuf = appendWant(r.sendBuf[:0], uint64(pos+r.offset), uint64(limit+r.offset))
	if _, err := r.conn.Write(r.sendBuf); err == nil {
		if limit > r.limit {
			r.limit = limit
		}
	}
}

// release returns the read buffers to the pool; nothing may view them after.
func (r *Receiver) release() {
	rxPool.Put(r.bufs)
	r.bufs, r.rest, r.more = nil, nil, nil
}

// Close tunes out: a best-effort bye releases the broadcaster's
// subscription immediately (the idle timeout would reclaim it anyway) and
// the socket closes. Safe to call more than once.
func (r *Receiver) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.sendBuf = appendBye(r.sendBuf[:0])
	r.conn.Write(r.sendBuf)
	r.conn.Close()
	r.release()
	if r.view != nil {
		*r.view = spanView{} // the pool must not pin this receiver's buffer
		viewPool.Put(r.view)
		r.view = nil
	}
}
