package broadcast

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
)

// Tuner is a client's view of the channel. It advances through absolute
// packet positions, either listening (receiving the packet, which costs
// tuning time / energy) or sleeping (skipping ahead for free). It accounts
// the paper's tuning-time and access-latency factors.
//
// Position bookkeeping: Pos is the absolute position of the packet the
// client would receive next. Positions increase forever; the cycle repeats
// underneath (position p carries cycle packet p mod L).
type Tuner struct {
	feed  Feed
	pos   int
	start int
	// tuning counts packets listened to, including ones that arrived
	// corrupted: the radio was receiving either way.
	tuning int
	last   int // absolute position of the last packet listened to
	// lost counts listened-to packets that arrived corrupted — simulator
	// loss and live backpressure drops alike (the air does not say which).
	lost int

	// trace, when set, records this query's span events (flight recorder);
	// nil (the default) costs one branch per event site and no allocation.
	trace *obs.Trace

	// Multi-channel accounting (nil/zero on plain feeds): latency runs on
	// the feed's global clock, not on logical positions. span is the feed's
	// run reception (ListenSpan), nil on a feed that serves only At.
	clocked   Clocked
	hopping   Hopping
	span      Spanner
	refresh   Refreshable
	startTick int
	lastTick  int // clock after the last packet listened to, or -1

	// Version window: the span of cycle versions observed on intact packets
	// since tune-in or the last ResetVersionWindow. On a static broadcast
	// every packet carries version zero and the window never widens; on a
	// versioned air (internal/update) a widened window tells the client its
	// partial state straddles a cycle swap.
	verKnown     bool
	verLo, verHi uint32
	// Length drift: lost packets carry no version, so a swap whose
	// pre-swap receptions were all corrupted would be invisible to the
	// window above — but a client may still have sampled the outgoing
	// cycle's length (CycleLen, NextOccurrence) and built its reception
	// plan on it. Feed length is observable without reception, so any
	// change within a window marks it mixed too.
	verLen   int
	verDrift bool

	// Tuning budget (SetBudget): the paper's energy knob as an admission
	// limit. 0 (the default) is unlimited; a positive budget aborts the
	// listen loop once tuning reaches it, via the same typed-panic channel
	// as a cancelled bound context.
	budget int

	// Cancellation (Bind): scheme clients drive the tuner in tight
	// listen loops with no error path of their own, so on a lossy channel
	// a query spins until recovery succeeds no matter what the caller
	// wants. A bound context is polled every ctxStride listens and aborts
	// the loop via a typed panic that RecoverCancel converts back into
	// ctx.Err() at the query entry point. ctx == nil (the default) is one
	// predictable branch on the hot path and zero allocations.
	ctx      context.Context
	ctxCount int
}

// ctxStride is how many listens pass between context polls: cheap enough
// to keep Listen's hot path unmeasurable, tight enough that even a paced
// 384 Kbps channel notices cancellation within ~0.2s of air time.
const ctxStride = 64

// NewTuner returns a tuner that tunes in at absolute position start: the
// moment the query is posed.
func NewTuner(ch *Channel, start int) *Tuner {
	return NewFeedTuner(ch, start)
}

// NewFeedTuner returns a tuner over an arbitrary Feed — a replayed Channel
// or a live station subscription — tuning in at absolute position start.
// Because the same Tuner does all tuning-time and latency accounting
// regardless of the feed, a live client and an offline replay with the same
// tune-in position and loss pattern report identical metrics.
func NewFeedTuner(f Feed, start int) *Tuner {
	t := &Tuner{feed: f, pos: start, start: start, last: start - 1, lastTick: -1}
	if cf, ok := f.(Clocked); ok {
		t.clocked = cf
		t.startTick = cf.TuneIn()
	}
	if hf, ok := f.(Hopping); ok {
		t.hopping = hf
	}
	if sf, ok := f.(Spanner); ok {
		t.span = sf
	}
	if rf, ok := f.(Refreshable); ok {
		t.refresh = rf
	}
	return t
}

// Bind attaches a context to the tuner: Listen polls it periodically and,
// once it is cancelled, aborts the listen loop by panicking with a private
// sentinel. The query entry point that bound the context recovers it with
// RecoverCancel and returns ctx.Err() like any other error — scheme
// clients in between need no error plumbing of their own. Binding nil
// removes the context.
func (t *Tuner) Bind(ctx context.Context) {
	t.ctx = ctx
	t.ctxCount = 0
}

// cancelAbort is the panic payload a cancelled bound context raises.
type cancelAbort struct{ err error }

// ErrTuningBudget marks a query aborted because its tuning budget ran out:
// the radio was allowed to receive only so many packets (the paper's
// energy constraint) and the answer was not complete when they were spent.
// Callers detect it with errors.Is; deploy.Session reports such queries as
// degraded rather than failed.
var ErrTuningBudget = errors.New("broadcast: tuning budget exhausted")

// SetBudget caps how many packets the tuner may listen to; once tuning
// reaches n, the next Listen aborts the loop with an error wrapping
// ErrTuningBudget (through the RecoverCancel channel, like cancellation).
// n <= 0 removes the cap. The budget is a total across the tuner's
// lifetime — re-entries after a cycle swap spend from the same allowance,
// which is exactly the energy argument: the radio already paid for those
// packets.
func (t *Tuner) SetBudget(n int) {
	t.budget = n
}

// AbortFeed aborts the listen loop in progress with err, using the same
// typed-panic channel as a cancelled bound context: the query entry point's
// RecoverCancel converts it into an ordinary error. A feed whose transport
// is gone for good (a network receiver whose broadcaster stopped answering,
// internal/wire) calls it from At — unlike the in-process feeds it cannot
// degrade to deterministic replay, and returning endless corrupted
// receptions would spin the client's recovery loops forever.
func AbortFeed(err error) {
	panic(cancelAbort{err})
}

// RecoverCancel converts a context-cancellation abort raised by a bound
// Tuner into an ordinary error: deferred around a client.Query call, it
// stores the context's error in *errp and swallows the panic. Any other
// panic propagates unchanged.
func RecoverCancel(errp *error) {
	switch r := recover(); c := r.(type) {
	case nil:
	case cancelAbort:
		*errp = c.err
	default:
		panic(r)
	}
}

// checkCtx polls the bound context every ctxStride listens.
func (t *Tuner) checkCtx() {
	t.ctxCount++
	if t.ctxCount < ctxStride {
		return
	}
	t.ctxCount = 0
	if err := t.ctx.Err(); err != nil {
		panic(cancelAbort{err})
	}
}

// FeedStale reports whether the underlying feed's cached cycle structure
// went stale (Refreshable); plain feeds never do. A stale feed cannot be
// re-entered in place — the client needs a fresh one.
func (t *Tuner) FeedStale() bool {
	return t.refresh != nil && t.refresh.Stale()
}

// CycleLen returns the cycle length in packets. The sample joins the
// version window: a reception plan built on one length is invalid on a
// swapped cycle of another, even if no packet of the old version was
// received intact (VersionMixed).
func (t *Tuner) CycleLen() int {
	l := t.feed.Len()
	t.noteLen(l)
	return l
}

// Pos returns the absolute position of the next packet.
func (t *Tuner) Pos() int { return t.pos }

// Listen receives the packet at the current position and advances. The
// boolean reports whether the packet arrived intact; a lost packet still
// counts toward tuning time. The payload is valid until the next Listen
// (Feed): keep a copy, not the slice.
//
//air:noalloc
func (t *Tuner) Listen() (packet.Packet, bool) {
	t.admit(1)
	p, ok := t.feed.At(t.pos)
	tick := 0
	if t.clocked != nil {
		tick = t.clocked.Clock()
	}
	t.take(p, ok, tick, t.feed.Len())
	return p, ok
}

// ListenSpan receives the next n packets back to back — a region's
// segment, an index copy, a whole cycle — calling fn with each one's
// absolute position, packet and intact flag: exactly what n Listens would
// return, accounted exactly as they would be (tuning, loss, the version
// window, latency, trace events), and aborted on the same packet by a
// budget or a cancelled context. On a Spanner feed a run costs one Span
// call per view instead of three feed calls per packet, and the run is a
// Prefetch hint only where the tuner must ask for less than all of it; any
// other feed is given the run as a Prefetch hint and served by At. fn must
// not move the tuner; p is valid until fn returns (keep a copy, not the
// slice).
//
//air:noalloc
func (t *Tuner) ListenSpan(n int, fn func(abs int, p packet.Packet, ok bool)) {
	if t.span == nil {
		if pf, ok := t.feed.(Prefetcher); ok && n > 1 {
			pf.Prefetch(t.pos, n)
		}
		for ; n > 0; n-- {
			abs := t.pos
			p, ok := t.Listen()
			fn(abs, p, ok)
		}
		return
	}
	for first := true; n > 0; first = false {
		k := t.admit(n)
		if first && k < n {
			// The first view must stop short of the run (a context poll or
			// the budget falls inside it): declare the whole run, so that
			// the feed prepares it as one and not view by view.
			if pf, ok := t.feed.(Prefetcher); ok {
				pf.Prefetch(t.pos, n)
			}
		}
		pkts, lost := t.span.Span(t.pos, k)
		if t.ctx != nil {
			t.ctxCount += len(pkts) - 1 // admit counted the first
		}
		l := t.feed.Len()
		tick := 0
		if t.clocked != nil {
			tick = t.clocked.Clock() - len(pkts)
		}
		for i, p := range pkts {
			ok := lost&(1<<i) == 0
			if !ok {
				p = packet.Packet{Kind: p.Kind}
			}
			tick++
			fn(t.take(p, ok, tick, l), p, ok)
		}
		n -= len(pkts)
	}
}

// admit makes the checks that precede a reception — the context poll every
// ctxStride listens, the tuning budget — and returns how many of the next n
// listens may follow without either firing: a span cut there aborts on the
// same packet a run of Listens would.
func (t *Tuner) admit(n int) int {
	if t.ctx != nil {
		t.checkCtx()
		n = min(n, ctxStride-t.ctxCount)
	}
	if t.budget > 0 {
		if t.tuning >= t.budget {
			panic(cancelAbort{fmt.Errorf("%w after %d packets", ErrTuningBudget, t.tuning)})
		}
		n = min(n, t.budget-t.tuning)
	}
	return n
}

// take accounts the reception of p at the current position, made when the
// feed's clock read tick (Clocked feeds only) and its cycle length l, and
// advances; it returns the position received.
func (t *Tuner) take(p packet.Packet, ok bool, tick, l int) int {
	t.last = t.pos
	t.pos++
	t.tuning++
	if t.clocked != nil {
		t.lastTick = tick
	}
	if !ok {
		t.lost++
		t.trace.Record(obs.EvRetry, int64(t.last), 0)
	} else if !t.verKnown {
		// Only intact packets widen the version window: a lost packet
		// carries no trustworthy header.
		t.verKnown = true
		t.verLo, t.verHi = p.Version, p.Version
	} else {
		t.verLo = min(t.verLo, p.Version)
		t.verHi = max(t.verHi, p.Version)
	}
	t.noteLen(l)
	return t.last
}

// noteLen folds one cycle-length observation into the version window.
func (t *Tuner) noteLen(l int) {
	if t.verLen == 0 {
		t.verLen = l
	} else if l != t.verLen {
		t.verDrift = true
		t.verLen = l
	}
}

// Version returns the highest cycle version observed in the current version
// window and whether any intact packet has been received in it. Cycle swaps
// only ever move the version forward, so this is the version of the air the
// tuner most recently saw.
func (t *Tuner) Version() (uint32, bool) { return t.verHi, t.verKnown }

// VersionMixed reports whether the current version window straddles a
// cycle swap: intact packets of more than one version were received, or
// the cycle length changed under the window (a swap whose old-version
// packets were all lost still shifts the structure a reception plan was
// built on). The answer a client is assembling may be stale; it re-enters
// (resets its per-query state and runs the query again on the same tuner —
// by then the swap is behind it).
func (t *Tuner) VersionMixed() bool {
	return (t.verKnown && t.verLo != t.verHi) || t.verDrift
}

// ResetVersionWindow starts a fresh version observation window. Metrics are
// untouched: tuning and latency keep accumulating across re-entries, so a
// query that straddled a swap reports the true total cost of answering it.
func (t *Tuner) ResetVersionWindow() {
	t.verKnown = false
	t.verLo, t.verHi = 0, 0
	t.verLen = 0
	t.verDrift = false
}

// SleepTo advances to absolute position abs without listening. It panics if
// abs is in the past — that would be a scheme bug (clients cannot rewind a
// broadcast).
func (t *Tuner) SleepTo(abs int) {
	if abs < t.pos {
		panic(fmt.Sprintf("broadcast: SleepTo(%d) before current position %d", abs, t.pos))
	}
	t.pos = abs
}

// NextOccurrence returns the smallest absolute position >= Pos whose cycle
// position equals cyclePos.
func (t *Tuner) NextOccurrence(cyclePos int) int {
	abs, _ := t.next(cyclePos)
	return abs
}

// next is NextOccurrence plus the cycle length it was computed at.
func (t *Tuner) next(cyclePos int) (abs, cycleLen int) {
	l := t.feed.Len()
	t.noteLen(l)
	delta := cyclePos - t.pos%l
	if delta < 0 {
		delta += l
	}
	return t.pos + delta, l
}

// Lost returns how many listened-to packets arrived corrupted so far:
// injected simulator loss plus live backpressure drops, exactly as the
// client's retry loops experienced them.
func (t *Tuner) Lost() int { return t.lost }

// SetTrace attaches a flight recorder to the tuner and records the tune-in
// event. A nil trace detaches (event sites degrade to one branch).
func (t *Tuner) SetTrace(tr *obs.Trace) {
	t.trace = tr
	tr.Record(obs.EvTuneIn, int64(t.start), 0)
}

// Tuning returns the packets listened to so far, including any the feed
// itself received on the client's behalf (a hopping radio's directory
// bootstrap).
func (t *Tuner) Tuning() int {
	if t.hopping != nil {
		return t.tuning + t.hopping.Overhead()
	}
	return t.tuning
}

// Latency returns the access latency in packets: from the tune-in moment
// through the last packet listened to. On a Clocked feed this is measured
// in global clock ticks (a multi-channel wait covers ticks, not logical
// positions); on a plain feed the two are the same thing.
func (t *Tuner) Latency() int {
	if t.clocked != nil {
		if t.lastTick < 0 {
			return 0
		}
		return t.lastTick - t.startTick
	}
	if t.last < t.start {
		return 0
	}
	return t.last - t.start + 1
}

// Arrival returns the global tick at which cycle position cyclePos next
// crosses the air — its next occurrence on a plain feed, where ticks are
// logical positions, and the radio's own estimate on a Hopping feed, where
// they are not — and the cycle length it was computed at. While the radio
// moves forward a position's arrival never moves earlier
// (Hopping.WaitFor), so an arrival computed earlier is a lower bound on
// the current one as long as the cycle length holds: the property Fetch
// and Recover order their receptions on.
func (t *Tuner) Arrival(cyclePos int) (tick, cycleLen int) {
	abs, l := t.next(cyclePos)
	if t.hopping != nil {
		return t.hopping.Clock() + t.hopping.WaitFor(abs), l
	}
	return abs, l
}

// ElapsedCycles returns how many full cycle lengths the tuner has advanced
// since tune-in; tests use it to check the paper's "access latency does not
// exceed one broadcast cycle" claims.
func (t *Tuner) ElapsedCycles() float64 {
	return float64(t.pos-t.start) / float64(t.feed.Len())
}
