// Package station runs a live broadcast station: a goroutine that streams a
// server's cycle on a virtual clock and fans every transmission out to any
// number of concurrently subscribed listeners.
//
// The offline substrate (internal/broadcast) replays the cycle pull-style:
// one tuner asks for position p and receives cycle[p mod L]. The station is
// the push-style counterpart a deployed system needs — clients tune in
// mid-cycle at whatever the station is transmitting *right now*, receive
// packets over buffered per-subscriber channels, and unsubscribe when their
// query is answered. Each subscriber has its own deterministic Bernoulli
// loss pattern (the same splitmix64 draw as broadcast.Channel), so a live
// client and an offline replay with equal tune-in position, loss rate and
// seed observe bit-identical air — the invariant internal/fleet's tests pin.
//
// Clock model: with BitsPerSecond == 0 the clock is virtual — the station
// transmits as fast as its listeners accept, applying backpressure when a
// subscriber's buffer fills (no packet is ever dropped, so determinism is
// exact), and it does no work for positions nobody is tuned in for: the
// clock jumps straight to the lowest position any listener still wants
// (fastForwardLocked; DESIGN.md §3 says what it may skip and what it may
// not). With BitsPerSecond > 0 the station paces transmissions to the
// channel rate (PacketBits per packet, the paper's 128-byte packets); a
// subscriber that falls behind the air misses packets, which its feed
// reports as lost — a radio cannot pause the broadcast.
package station

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broadcast"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
)

// Package-level instruments (DESIGN.md §10). Shared across all stations in
// the process: one airserve daemon is one scrape target, and labels on a
// per-station basis would be unbounded under churn tests.
var (
	obsPackets = obs.GetCounter("air_station_packets_total",
		"positions the clock passed (one per tick per station, fast-forwarded ones included)")
	obsSkipped = obs.GetCounter("air_station_skipped_packets_total",
		"positions a virtual clock fast-forwarded over because no listener wanted them")
	obsDropped = obs.GetCounter("air_station_dropped_packets_total",
		"packets dropped by a paced station because a subscriber buffer was full (backpressure)")
	obsSubscribers = obs.GetGauge("air_station_subscribers",
		"currently open subscriptions across all stations")
	obsSwaps = obs.GetCounter("air_station_swaps_total",
		"cycle swaps that reached the air")
	obsBufDepth = obs.GetHistogram("air_station_sub_buffer_depth",
		"sampled per-subscriber buffer occupancy in packets (every 256th delivery)")
	obsRefused = obs.GetCounter("air_station_refused_subscribers_total",
		"subscriptions refused by the MaxSubscribers admission cap")
)

// ErrFull reports that a Subscribe hit the station's MaxSubscribers
// admission cap. Callers detect it with errors.Is; the wire broadcaster
// converts it into a typed busy frame so a remote client learns it was
// shed rather than timing out.
var ErrFull = errors.New("station: subscriber limit reached")

// Config tunes a station. The zero value is a virtual-clock station with
// paper-sized packets and a generous per-subscriber buffer.
type Config struct {
	// BitsPerSecond paces the broadcast in real time (e.g. metrics.RateFast);
	// 0 selects the virtual clock (as fast as listeners allow, lossless
	// backpressure).
	BitsPerSecond int
	// PacketBits is the airtime of one packet; default metrics.PacketBits.
	PacketBits int
	// Buffer is the per-subscriber channel depth in packets; default 1024.
	Buffer int
	// Start is the absolute position the station begins transmitting at.
	Start int
	// MaxSubscribers caps concurrent subscriptions; Subscribe past the cap
	// fails with ErrFull (admission control — a refused client costs one
	// frame, an admitted one an indefinite broadcast feed). 0 = unlimited.
	MaxSubscribers int
}

// Transmission is one packet as it crossed the air for one subscriber:
// absolute position, payload, and whether it survived that subscriber's
// loss pattern.
type Transmission struct {
	Pos int
	Pkt packet.Packet
	OK  bool
}

// epoch is one cycle's tenure on the air. A static station has exactly one;
// every Swap pushes a new one whose origin records the absolute position it
// took over at. The chain stays reachable so degraded paths (buffer-overrun
// skeletons, off-air replay) can still serve any historic position
// deterministically — but only as far back as some current subscriber can
// still ask (newEpoch prunes the rest, so a long-churning station does not
// pin every cycle it ever broadcast). Positions map into an epoch's cycle
// as pos mod Len — a swapped-in cycle enters the rotation at whatever
// phase the absolute position dictates, so client-side cyclic arithmetic
// (which runs on pos mod Len) needs no adjustment.
type epoch struct {
	cycle  *broadcast.Cycle
	origin int // absolute position this cycle went on the air
	prev   *epoch
}

// find returns the epoch whose tenure covers absolute position abs (or the
// oldest retained one for positions older than the pruned history).
func (e *epoch) find(abs int) *epoch {
	for e.prev != nil && abs < e.origin {
		e = e.prev
	}
	return e
}

// newEpoch returns the epoch for cycle c taking over at origin, chaining
// copies of only those predecessors whose tenure a position >= minNeeded
// can still fall into. Copies, not the originals: published epoch nodes
// are read lock-free by subscriber goroutines and must never be mutated.
func newEpoch(c *broadcast.Cycle, origin int, prev *epoch, minNeeded int) *epoch {
	var keep []*epoch
	for e := prev; e != nil; e = e.prev {
		keep = append(keep, e)
		if minNeeded >= e.origin {
			break // everything older can no longer be requested
		}
	}
	var chain *epoch
	for i := len(keep) - 1; i >= 0; i-- {
		chain = &epoch{cycle: keep[i].cycle, origin: keep[i].origin, prev: chain}
	}
	return &epoch{cycle: c, origin: origin, prev: chain}
}

// Station streams a broadcast cycle to its subscribers.
type Station struct {
	cfg Config

	// cur is the epoch on the air: swapped under mu by the transmit paths,
	// loaded lock-free by subscriber-goroutine reads (Len, replay).
	cur atomic.Pointer[epoch]

	mu      sync.Mutex
	subs    map[*Sub]struct{}
	running bool
	// subList is a copy-on-write snapshot of subs, rebuilt under mu on every
	// subscribe/unsubscribe and never mutated afterwards: the transmit loop
	// picks it up with one brief lock per tick (to order ticks against
	// subscribes, which Start-position guarantees rely on) instead of
	// walking the map.
	subList []*Sub
	// pos is the next absolute position to transmit; guarded by mu. Only the
	// transmit goroutine writes it, so that goroutine may also read it
	// without the lock.
	pos int
	// wantGen counts the want changes a fast-forward scan must not straddle
	// (Sub.setWant): the station's own counter, or the group's once a Group
	// adopts the station.
	wantGen *atomic.Uint64
	// pending is a cycle awaiting its swap-in at the next cycle boundary,
	// and swapped reports the absolute swap position once it happens;
	// guarded by mu.
	pending *broadcast.Cycle
	swapped chan int

	cancel context.CancelFunc
	done   chan struct{}
}

// New returns a station for the cycle. Call Start to put it on the air.
func New(c *broadcast.Cycle, cfg Config) (*Station, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("station: empty cycle")
	}
	if cfg.PacketBits == 0 {
		cfg.PacketBits = metrics.PacketBits
	}
	if cfg.Buffer == 0 {
		cfg.Buffer = 1024
	}
	if cfg.BitsPerSecond < 0 || cfg.PacketBits <= 0 || cfg.Buffer < 1 || cfg.Start < 0 {
		return nil, fmt.Errorf("station: invalid config %+v", cfg)
	}
	s := &Station{
		cfg:     cfg,
		subs:    make(map[*Sub]struct{}),
		pos:     cfg.Start,
		wantGen: new(atomic.Uint64),
	}
	s.cur.Store(&epoch{cycle: c, origin: cfg.Start})
	return s, nil
}

// Cycle returns the cycle currently on the air.
func (s *Station) Cycle() *broadcast.Cycle { return s.cur.Load().cycle }

// Len returns the current cycle length in packets.
func (s *Station) Len() int { return s.cur.Load().cycle.Len() }

// Version returns the version of the cycle currently on the air.
func (s *Station) Version() uint32 { return s.cur.Load().cycle.Version }

// Rate returns the channel bit rate queries should be costed at: the paced
// rate, or metrics.RateFast for a virtual clock.
func (s *Station) Rate() int {
	if s.cfg.BitsPerSecond > 0 {
		return s.cfg.BitsPerSecond
	}
	return metrics.RateFast
}

// Pos returns the absolute position of the next packet to be transmitted.
func (s *Station) Pos() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// ErrStarted reports that a Start found the station (or group) already on
// the air. Callers wanting idempotent start semantics match it with
// errors.Is and carry on; anything else from Start is a real failure.
var ErrStarted = errors.New("station: already started")

// Start puts the station on the air. Transmission stops when ctx is
// cancelled or Stop is called; either way every open subscription's channel
// is closed (its feed then degrades to deterministic replay, so in-flight
// queries still terminate). A stopped station may be Started again.
func (s *Station) Start(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return ErrStarted
	}
	ctx, s.cancel = context.WithCancel(ctx)
	s.done = make(chan struct{})
	s.running = true
	go s.run(ctx, s.done)
	return nil
}

// Swap schedules c to replace the cycle on the air at the next cycle
// boundary: the first position p with p mod Len == 0, so the outgoing
// version always completes its final cycle and no cycle ever mixes two
// versions. The returned channel delivers the absolute swap position once
// the swap happens; if the station leaves the air first the swap is
// abandoned and the channel is closed without a value (receive with
// comma-ok to tell the two apart). One swap may be pending at a time;
// stations driven by a Group swap through Group.Swap instead, which
// trades boundary alignment for cross-member atomicity.
func (s *Station) Swap(c *broadcast.Cycle) (<-chan int, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("station: swap to empty cycle")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return nil, fmt.Errorf("station: not on the air")
	}
	if s.pending != nil {
		return nil, fmt.Errorf("station: swap already pending")
	}
	s.pending = c
	s.swapped = make(chan int, 1)
	return s.swapped, nil
}

// forceSwap installs c on the air from the station's current position,
// regardless of cycle boundaries, and returns that position. The group
// transmit loop uses it to swap every member at one global tick; the caller
// must not hold mu.
func (s *Station) forceSwap(c *broadcast.Cycle) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur.Store(newEpoch(c, s.pos, s.cur.Load(), s.minNeededLocked()))
	obsSwaps.Inc()
	return s.pos
}

// minNeededLocked returns the oldest absolute position any current
// subscriber can still request — the epoch-history pruning horizon. Want
// positions are non-decreasing (a broadcast cannot be rewound), so nothing
// below the minimum want is ever served again; with no subscribers the
// horizon is the transmit position itself. The caller holds mu.
func (s *Station) minNeededLocked() int {
	return int(min(int64(s.pos), lowestWant(s.subList)))
}

// parked is the want of a parked subscription (Sub.Park): later than any
// position the air will ever reach, so the station never delivers to it and
// lowestWant never counts it.
const parked = int64(1) << 62

// lowestWant returns the lowest want among subs, parked subscriptions
// excluded; parked itself when nobody is tuned in.
func lowestWant(subs []*Sub) int64 {
	low := parked
	for _, sub := range subs {
		if w := sub.want.Load(); w < low {
			low = w
		}
	}
	return low
}

// fastForwardLocked moves a virtual clock straight to the next position
// anybody needs it at: the lowest want among the subscriptions, or — while
// a Swap is pending — the next cycle boundary if that comes first, so the
// swap still lands on the first p with p mod Len == 0 (an idle station
// therefore jumps to its boundary instead of crawling there). Positions
// below every want would be delivered to nobody, so skipping them changes
// no listener's air. The caller holds mu, which orders the scan and the
// move against Subscribe; the generation check discards a scan that
// straddled a hop (see Sub.setWant), in which case the clock just ticks.
func (s *Station) fastForwardLocked() {
	gen := s.wantGen.Load()
	target := lowestWant(s.subList)
	if s.pending != nil {
		l := s.cur.Load().cycle.Len()
		target = min(target, int64(s.pos+(l-s.pos%l)%l))
	}
	if target == parked || target <= int64(s.pos) || s.wantGen.Load() != gen {
		return
	}
	s.skipLocked(int(target) - s.pos)
}

// skipLocked passes n positions without a step. air_station_packets_total
// keeps counting every position the clock passed; the skipped ones are
// tallied on their own as well. The caller holds mu.
func (s *Station) skipLocked(n int) {
	s.pos += n
	obsPackets.Add(int64(n))
	obsSkipped.Add(int64(n))
}

// SwapPending reports whether a scheduled swap has not yet reached the
// air. Because a swap clears only after the new epoch is visible (and an
// abandoned one only on shutdown), "no pending swap and still the old
// version" means the swap will never happen.
func (s *Station) SwapPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending != nil
}

// Stop takes the station off the air and waits for the transmit loop to
// exit. It is safe to call multiple times and after context cancellation.
func (s *Station) Stop() {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// run is the transmit loop: one packet per tick of the (virtual or paced)
// clock, fanned out to the current subscribers.
func (s *Station) run(ctx context.Context, done chan struct{}) {
	defer close(done)
	defer s.closeSubs()

	interval := s.cfg.interval()
	started := time.Now()
	transmitted := 0
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		if interval > 0 {
			// Pace to the channel rate: sleep until the next packet is due.
			// Short oversleeps are repaid by transmitting every due packet
			// before sleeping again, so long cycles keep the configured rate.
			due := started.Add(time.Duration(transmitted) * interval)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
			}
		}
		listeners := s.step(ctx, interval == 0)
		transmitted++
		if len(listeners) == 0 && interval == 0 {
			// Virtual clock with nobody tuned in: the air continues, but
			// there is no need to burn a core advancing it at full speed.
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// interval returns the per-packet airtime of a paced clock (0 = virtual).
func (cfg Config) interval() time.Duration {
	if cfg.BitsPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(cfg.PacketBits) / float64(cfg.BitsPerSecond) * float64(time.Second))
}

// step transmits one tick to every current subscriber and returns them (the
// copy-on-write snapshot: read it, never write it). It is called by the
// station's own transmit loop or, for stations driven as a Group, by the
// group's. With fastForward (a virtual clock ticking on its own) the tick
// transmitted is the next one anybody wants; a group fast-forwards its
// members together instead (Group.run).
func (s *Station) step(ctx context.Context, fastForward bool) []*Sub {
	s.mu.Lock()
	if fastForward {
		s.fastForwardLocked()
	}
	pos := s.pos
	s.pos++
	ep := s.cur.Load()
	if s.pending != nil && pos%ep.cycle.Len() == 0 {
		// Cycle boundary: the outgoing version completed its last cycle, the
		// pending one takes over from this very position. The new epoch is
		// visible before the pending slot clears, so anyone who observes no
		// pending swap (SwapPending) also observes the new version.
		ep = newEpoch(s.pending, pos, ep, s.minNeededLocked())
		s.cur.Store(ep)
		s.pending = nil
		s.swapped <- pos // cap 1, one pending swap: never blocks
		close(s.swapped)
		obsSwaps.Inc()
	}
	subs := s.subList
	s.mu.Unlock()
	obsPackets.Inc()
	for _, sub := range subs {
		s.deliver(ctx, sub, pos, ep)
	}
	return subs
}

// Subscribers returns the number of currently open subscriptions.
func (s *Station) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subList)
}

// updateSubList rebuilds the copy-on-write subscriber snapshot; the caller
// holds mu.
func (s *Station) updateSubList() {
	list := make([]*Sub, 0, len(s.subs))
	for sub := range s.subs {
		list = append(list, sub)
	}
	s.subList = list
}

// deliver transmits position pos to one subscriber, applying its private
// loss pattern. A sleeping subscriber (its tuner slept past pos) receives
// nothing: its radio is off. On a virtual clock a full buffer blocks the
// station (backpressure); on a paced clock it drops the packet, which the
// subscriber's feed later reports as lost.
//
// An exact subscriber on a virtual clock additionally holds the clock: the
// station will not transmit a position beyond the subscriber's want until
// the subscriber advances it (WakeAt / Prefetch / the next At), so it is
// delivered its wants and its declared windows and nothing else. Every
// in-process listener on a virtual clock subscribes this way: a live K=1
// session, which then never has dozed-over positions pushed at it, and each
// shard of a multi-channel radio, which listens to one channel at a time
// and must not find that the shared clock raced past the tick it will hop
// to — the stale want between two receptions is the hold. On a paced clock
// exactness is moot: real time does not wait, and a late radio misses
// packets like any other.
func (s *Station) deliver(ctx context.Context, sub *Sub, pos int, ep *epoch) {
	if sub.exact && s.cfg.BitsPerSecond == 0 {
		for {
			w := sub.want.Load()
			if int64(pos) < w {
				return
			}
			if int64(pos) == w || int64(pos) < sub.limit.Load() {
				break // transmit below (wanted now, or inside a declared window)
			}
			// pos > want: hold the clock until the subscriber advances.
			select {
			case <-sub.wake:
			case <-sub.closed:
				return
			case <-ctx.Done():
				return
			}
		}
	} else if int64(pos) < sub.want.Load() {
		return
	}
	t := Transmission{Pos: pos, OK: !broadcast.Lost(sub.seed, pos, sub.loss)}
	p := ep.cycle.Packets[pos%ep.cycle.Len()]
	if t.OK {
		t.Pkt = p
	} else {
		t.Pkt = packet.Packet{Kind: p.Kind}
	}
	if pos&0xff == 0 {
		obsBufDepth.Observe(float64(len(sub.ch)))
	}
	if s.cfg.BitsPerSecond > 0 {
		select {
		case sub.ch <- t:
		default:
			// Backpressure on a paced clock: real time does not wait, the
			// packet is gone. Count the drop event and announce the first
			// overrun per subscriber — a persistent one means the buffer or
			// the client is undersized. Sub.missed is NOT bumped here: the
			// tuner may sleep over this position and never ask for it, and
			// Missed() promises the listened-for subset (missedAt), so the
			// drop only becomes a miss if the feed has to serve it as a
			// corrupted reception.
			obsDropped.Inc()
			if sub.overruns.Add(1) == 1 {
				log.Printf("station: subscriber buffer full at pos %d (depth %d); dropping (backpressure)",
					pos, cap(sub.ch))
			}
		}
		return
	}
	// Fast path: a non-blocking send avoids the multi-case select machinery
	// on every tick; the blocking select only runs under backpressure.
	select {
	case sub.ch <- t:
		return
	default:
	}
	select {
	case sub.ch <- t:
	case <-sub.closed:
	case <-ctx.Done():
	}
}

// closeSubs closes every open subscription's channel once the transmit loop
// has exited (so no send can race the close). A swap still pending at that
// point is abandoned: its channel closes without a value, so waiters
// unblock instead of hanging on a station that will never tick again.
func (s *Station) closeSubs() {
	s.mu.Lock()
	subs := make([]*Sub, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
		delete(s.subs, sub)
		obsSubscribers.Dec()
	}
	s.updateSubList()
	if s.pending != nil {
		close(s.swapped)
		s.pending, s.swapped = nil, nil
	}
	s.running = false // the station may be Started again
	s.mu.Unlock()
	for _, sub := range subs {
		close(sub.ch)
	}
}

// Subscribe tunes a new listener in at the station's current position, with
// a private deterministic loss pattern (rate in [0,1), seeded like
// broadcast.NewChannel). The subscription is a broadcast.Feed; wrap it in a
// tuner with broadcast.NewFeedTuner(sub, sub.Start()). Close it when the
// query is done.
func (s *Station) Subscribe(lossRate float64, seed int64) (*Sub, error) {
	return s.subscribe(lossRate, seed, false)
}

// SubscribeExact is Subscribe for a listener that says what it wants — a
// live session's tuner, one shard of a multi-channel radio: on a virtual
// clock the station transmits to it only the position it wants and the
// windows it declares (Prefetch), and holds the clock (and, through a
// group, every sibling shard) at its current want until the listener
// advances it. A dozing listener thus costs the station nothing, and a
// radio hopping between channels never finds that the air raced past the
// tick it computed. Park the subscription whenever the radio tunes to a
// sibling channel. Subscribe remains for listeners that stream the air
// without declaring anything (a wire pump).
func (s *Station) SubscribeExact(lossRate float64, seed int64) (*Sub, error) {
	return s.subscribe(lossRate, seed, true)
}

// exactBuffer is the channel depth of an exact virtual-clock subscription
// (a live session's, or one shard of a hopping radio's). Outside a declared
// Prefetch window the station only transmits to such a subscription at
// exactly the position it wants, so at most one transmission is in flight;
// the buffer's job is to absorb window batches, and anything deeper than a
// typical span is allocation churn on the per-query subscribe path.
const exactBuffer = 64

func (s *Station) subscribe(lossRate float64, seed int64, exact bool) (*Sub, error) {
	if lossRate < 0 || lossRate >= 1 {
		return nil, fmt.Errorf("station: loss rate %v outside [0,1)", lossRate)
	}
	buffer := s.cfg.Buffer
	if exact && s.cfg.BitsPerSecond == 0 && buffer > exactBuffer {
		buffer = exactBuffer
	}
	sub := &Sub{
		st:     s,
		loss:   lossRate,
		seed:   uint64(seed),
		exact:  exact,
		wake:   make(chan struct{}, 1),
		ch:     make(chan Transmission, buffer),
		closed: make(chan struct{}),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return nil, fmt.Errorf("station: not on the air")
	}
	if s.cfg.MaxSubscribers > 0 && len(s.subs) >= s.cfg.MaxSubscribers {
		obsRefused.Inc()
		return nil, fmt.Errorf("%w (%d subscribers)", ErrFull, len(s.subs))
	}
	sub.start = s.pos
	sub.want.Store(int64(sub.start))
	s.subs[sub] = struct{}{}
	s.updateSubList()
	obsSubscribers.Inc()
	return sub, nil
}

// Sub is one listener's subscription: a buffered view of the air from its
// tune-in position onward. It implements broadcast.Feed, so the ordinary
// Tuner — and therefore every scheme client — runs unchanged on top of it.
//
// At, Start and Close must be called from the subscriber's own goroutine;
// the station side is concurrency-safe.
type Sub struct {
	st     *Station
	loss   float64
	seed   uint64
	start  int
	exact  bool
	wake   chan struct{} // want-advanced signal for exact delivery holds
	ch     chan Transmission
	closed chan struct{}

	// want is the lowest absolute position the listener still needs (parked
	// while it needs none); the station skips delivery below it, modelling a
	// sleeping radio, and a virtual clock never fast-forwards past it.
	want atomic.Int64
	// overruns counts station-side drop events (paced clock, buffer full)
	// whether or not the listener ever asks for the dropped position; it
	// gates the once-per-subscriber backpressure log line. missed counts the
	// listened-for subset: positions missedAt had to serve as corrupted
	// receptions, so Missed() is by construction a subset of the tuner's
	// Lost() count.
	overruns atomic.Int64
	missed   atomic.Int64
	// limit is the end (exclusive) of a declared contiguous listen window:
	// an exact subscription's clock hold relaxes to it, letting the station
	// buffer a whole span ahead instead of handing the clock back and forth
	// once per packet. Positions below want are still skipped, so the window
	// never changes which packets are received.
	limit atomic.Int64

	// Subscriber-goroutine state: a transmission read ahead of the position
	// the tuner asked for, and whether the station has left the air.
	pending    Transmission
	hasPending bool
	offAir     bool
	closeOnce  sync.Once
}

// Start returns the tune-in position: the first absolute position this
// subscription is guaranteed to receive.
func (s *Sub) Start() int { return s.start }

// Len returns the current cycle length in packets (broadcast.Feed). It
// changes when a swap installs a cycle of a different length (e.g. one
// carrying a delta trailer); clients always read it live through the tuner,
// so their cyclic arithmetic follows the air.
func (s *Sub) Len() int { return s.st.cur.Load().cycle.Len() }

// Missed returns how many backpressure-dropped packets (paced clock,
// buffer full) this subscription actually served to its listener as
// corrupted receptions. Dropped positions the tuner slept over are not
// counted, so Missed is always a subset of what the listener's tuner
// reports as Lost — subtracting the two isolates injected simulator loss.
func (s *Sub) Missed() int { return int(s.missed.Load()) }

// At blocks until the transmission at absolute position abs has crossed the
// air and returns it (broadcast.Feed). Positions the tuner slept over are
// discarded; a packet missed through buffer overrun is reported as lost,
// exactly like a corrupted packet, and recovered by the client in a later
// cycle. If the station leaves the air mid-query the feed degrades to
// deterministic replay of the cycle under the same loss pattern, so the
// query still terminates with the same answer.
func (s *Sub) At(abs int) (packet.Packet, bool) {
	s.setWant(int64(abs))
	if s.hasPending {
		p := s.pending
		switch {
		case p.Pos == abs:
			s.hasPending = false
			return p.Pkt, p.OK
		case p.Pos > abs:
			return s.missedAt(abs)
		default:
			s.hasPending = false
		}
	}
	for !s.offAir {
		t, ok := <-s.ch
		if !ok {
			s.offAir = true
			break
		}
		switch {
		case t.Pos < abs:
			// Slept over it.
		case t.Pos == abs:
			return t.Pkt, t.OK
		default:
			s.pending, s.hasPending = t, true
			return s.missedAt(abs)
		}
	}
	return s.replayAt(abs)
}

// Ready reports whether At(abs) would return without waiting for the
// station: the transmission at abs (or a later one, proving abs was missed)
// is already buffered, or the station has left the air. It never blocks and
// does not move the want, so the station cannot tell it was asked; buffered
// transmissions below abs — which At(abs) would discard as slept over — are
// discarded here, which is why a non-empty buffer alone answers nothing.
// Like At, it belongs to the subscriber's goroutine and takes non-decreasing
// positions. A wire pump asks it before each At: a pump holding unsent
// frames writes them out rather than wait for the air (wire.Broadcaster).
func (s *Sub) Ready(abs int) bool {
	if s.hasPending {
		if s.pending.Pos >= abs {
			return true
		}
		s.hasPending = false
	}
	for !s.offAir {
		select {
		case t, ok := <-s.ch:
			switch {
			case !ok:
				s.offAir = true
			case t.Pos >= abs:
				s.pending, s.hasPending = t, true
				return true
			}
		default:
			return false
		}
	}
	return true
}

// missedAt serves a packet the subscriber was tuned in for but never got
// buffered (the station dropped it under backpressure): on the air it is
// indistinguishable from a corrupted packet, and it is counted as a miss
// here — not at the drop — so Missed() tallies exactly the drops the
// listener experienced as losses. The epoch chain keeps the kind correct
// even when the miss straddles a cycle swap.
func (s *Sub) missedAt(abs int) (packet.Packet, bool) {
	s.missed.Add(1)
	ep := s.st.cur.Load().find(abs)
	return packet.Packet{Kind: ep.cycle.Packets[abs%ep.cycle.Len()].Kind}, false
}

// replayAt serves positions after the station left the air: a deterministic
// replay identical to a broadcast.Channel with this subscription's loss
// pattern, version-faithful across any swaps the station performed.
func (s *Sub) replayAt(abs int) (packet.Packet, bool) {
	ep := s.st.cur.Load().find(abs)
	p := ep.cycle.Packets[abs%ep.cycle.Len()]
	if broadcast.Lost(s.seed, abs, s.loss) {
		return packet.Packet{Kind: p.Kind}, false
	}
	return p, true
}

// setWant moves the listener's want and, for exact subscriptions, wakes a
// delivery hold waiting on it.
//
// A want only ever rises, except when a parked subscription is re-armed —
// and that is the one change a fast-forward scan must not straddle. A
// hopping radio re-arms the channel it hops to before parking the one it
// leaves; a scan that read the first while it was still parked and the
// second once it already was would find the radio holding the clock
// nowhere and could jump past the tick it hops to. Bumping the generation
// between the two stores makes every such scan see the counter move and
// discard itself. A rising want needs no bump: a scan that read the stale
// value merely jumped less far.
func (s *Sub) setWant(abs int64) {
	if old := s.want.Swap(abs); abs < old {
		s.st.wantGen.Add(1)
	}
	if s.exact {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// Prefetch declares that the listener will receive the n positions
// [from, from+n) back to back, and so nothing before from: its want rises
// to from (the station neither delivers nor ticks through the doze that
// ends there) and an exact subscription's clock hold relaxes to from+n, so
// the station can deliver the whole span into the buffer in one go. What
// the listener receives is unchanged, making this purely a batching hint
// (broadcast.Prefetcher). A parked subscription stays parked: only WakeAt
// or At re-arm it.
func (s *Sub) Prefetch(from, n int) {
	s.limit.Store(int64(from + n))
	s.setWant(max(int64(from), s.want.Load()))
}

// WakeAt declares the next absolute position the listener needs without
// receiving anything: positions below it are skipped (the radio sleeps),
// and an exact subscription's clock hold moves to it. A multi-channel radio
// calls this on the channel it is hopping to before parking the channel it
// is leaving, so the shared clock is never unheld.
func (s *Sub) WakeAt(abs int) { s.setWant(int64(abs)) }

// Park puts the subscription to sleep indefinitely: the station delivers
// nothing and an exact clock hold is released. WakeAt (or At) re-arms it.
func (s *Sub) Park() { s.setWant(parked) }

// Close tunes the listener out: the station stops delivering to it and
// releases it. Safe to call more than once; never blocks on the station.
func (s *Sub) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.st.mu.Lock()
		// The gauge decrements only when the map entry is still ours:
		// closeSubs may already have drained it on station shutdown.
		if _, ok := s.st.subs[s]; ok {
			delete(s.st.subs, s)
			obsSubscribers.Dec()
		}
		s.st.updateSubList()
		s.st.mu.Unlock()
	})
}
