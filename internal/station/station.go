// Package station runs a live broadcast station: a clock that streams a
// server's cycle to any number of concurrently subscribed listeners.
//
// The offline substrate (internal/broadcast) replays the cycle pull-style:
// one tuner asks for position p and receives cycle[p mod L]. The station is
// what a deployed system needs on top — clients tune in mid-cycle at
// whatever the station is transmitting *right now*, and unsubscribe when
// their query is answered. Each subscriber has its own deterministic
// Bernoulli loss pattern (the same splitmix64 draw as broadcast.Channel), so
// a live client and an offline replay with equal tune-in position, loss rate
// and seed observe bit-identical air — the invariant internal/fleet's tests
// pin.
//
// Clock model (DESIGN.md §3): a reception computes its own transmission
// from the epoch chain once the clock has passed its position; the two
// clocks differ only in what moves them, and neither runs a goroutine or
// keeps a buffer. With BitsPerSecond == 0 the clock is virtual and moves
// when its listeners pull: it passes a position only if every subscription
// allows it — a parked one everything, any other its want and the window
// its listener declared (a session's run, a wire pump's credit window) — so
// tune-in and swap positions are those of a station that transmitted as
// fast as its listeners accepted. With BitsPerSecond > 0 the clock is
// paced: its position is a function of wall time, one position per packet
// airtime (PacketBits, the paper's 128-byte packets). A listener sleeps
// until the positions it asks for have aired, and one that asks for a
// position more than Buffer positions behind the air has missed it, which
// its feed reports as lost — a radio cannot pause the broadcast.
package station

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
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
		"positions the clock passed (one per position per station)")
	obsSkipped = obs.GetCounter("air_station_skipped_packets_total",
		"positions a virtual clock passed below every listener's want")
	obsDropped = obs.GetCounter("air_station_dropped_packets_total",
		"positions a paced station served as lost because the listener asked more than Buffer positions behind the air")
	obsSubscribers = obs.GetGauge("air_station_subscribers",
		"currently open subscriptions across all stations")
	obsSwaps = obs.GetCounter("air_station_swaps_total",
		"cycle swaps that reached the air")
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
	// 0 selects the virtual clock (as fast as listeners allow, lossless).
	BitsPerSecond int
	// PacketBits is the airtime of one packet; default metrics.PacketBits.
	PacketBits int
	// Buffer is how far behind a paced air a listener may fall, in packets,
	// default 1024: a subscription still hears a position until Buffer more
	// have aired, and one it asks for later is served as missed. A virtual
	// clock waits for its listeners, so none falls behind it.
	Buffer int
	// Start is the absolute position the station begins transmitting at.
	Start int
	// MaxSubscribers caps concurrent subscriptions; Subscribe past the cap
	// fails with ErrFull (admission control — a refused client costs one
	// frame, an admitted one an indefinite broadcast feed). 0 = unlimited.
	MaxSubscribers int
}

// epoch is one cycle's tenure on the air. A static station has exactly one;
// every Swap pushes a new one whose origin records the absolute position it
// took over at. The chain stays reachable so any position a current
// subscriber can still ask for is served by the version that was on the air
// there — but only that far back (newEpoch prunes the rest, so a
// long-churning station does not pin every cycle it ever broadcast).
// Positions map into an epoch's cycle as pos mod Len — a swapped-in cycle
// enters the rotation at whatever phase the absolute position dictates, so
// client-side cyclic arithmetic (which runs on pos mod Len) needs no
// adjustment.
type epoch struct {
	cycle  *broadcast.Cycle
	origin int // absolute position this cycle went on the air
	prev   *epoch
}

// find returns the epoch whose tenure covers absolute position abs (or the
// oldest retained one for positions older than the pruned history).
func (e *epoch) find(abs int) *epoch {
	e, _ = e.tenure(abs)
	return e
}

// tenure returns the epoch whose tenure covers abs, as find does, and the
// origin of the epoch that followed it on the air (MaxInt for the epoch on
// the air now): a view of abs's cycle ends there.
func (e *epoch) tenure(abs int) (*epoch, int) {
	end := math.MaxInt
	for e.prev != nil && abs < e.origin {
		end = e.origin
		e = e.prev
	}
	return e, end
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

// clock is the position counter a lone station, or every member of a
// Group, transmits on. Its mutex also orders subscriptions, wants and
// swaps against every move of the clock.
type clock struct {
	interval time.Duration // per-packet airtime; 0 = virtual
	stations []*Station    // in member order

	mu      sync.Mutex
	pos     int          // the next position to pass
	reached atomic.Int64 // pos, for reading without mu
	running bool
	cancel  context.CancelFunc
	done    chan struct{} // closed once the air is off (halt)
	// A paced clock's run: position base began to air at t0.
	t0   time.Time
	base int

	// A virtual clock's unparked subscriptions: byAllow orders them all by
	// how far they let the clock go (Sub.allows), ahead orders by want
	// those whose want the clock has not passed, and served counts the
	// rest. waiters counts those blocked in At.
	byAllow, ahead  subHeap
	served, waiters int

	// pending holds one cycle per station awaiting a swap at the first
	// cycle boundary of a lone station (a group swaps at once); swapped
	// reports the position once the swap is on the air. On a paced clock
	// swapTimer fires at the boundary's airtime, so an idle station swaps.
	pending   []*broadcast.Cycle
	swapped   chan int
	swapTimer *time.Timer
	// swapAt is the position of the last swap a paced lone station
	// scheduled (0 = none), read without mu: a view asleep before it ends
	// there.
	swapAt atomic.Int64
}

// noSlots marks a subscription as in none of the clock's heaps.
var noSlots = [2]int{-1, -1}

// newClock returns the clock for stations, which share one configuration.
func newClock(stations []*Station) *clock {
	return &clock{
		interval: stations[0].cfg.interval(),
		stations: stations,
		pos:      stations[0].cfg.Start,
		byAllow:  subHeap{id: 0},
		ahead:    subHeap{id: 1},
	}
}

// start puts the clock on the air and arranges for ctx's cancellation to
// take it off again. A paced clock's position starts counting airtime now.
func (c *clock) start(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return ErrStarted
	}
	ctx, c.cancel = context.WithCancel(ctx)
	done := make(chan struct{})
	c.done, c.running = done, true
	c.t0, c.base = time.Now(), c.pos
	context.AfterFunc(ctx, func() { c.halt(done) })
	return nil
}

// stop takes the clock off the air and waits until it is. It is safe to
// call multiple times and after context cancellation.
func (c *clock) stop() {
	c.mu.Lock()
	cancel, done := c.cancel, c.done
	c.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// halt ends the run whose done channel it is given. Every open
// subscription leaves the air — its feed then degrades to deterministic
// replay, so in-flight queries still terminate — and a swap still pending
// is abandoned: its channel closes without a value, so waiters unblock.
func (c *clock) halt(done chan struct{}) {
	c.mu.Lock()
	c.catchUpLocked()
	for _, st := range c.stations {
		for _, sub := range st.subs {
			sub.offAir, sub.slots = true, noSlots
			if sub.waiting {
				sub.waiting = false
				sub.passed <- struct{}{} // cap 1, one wait at a time: never blocks
			}
		}
		obsSubscribers.Add(-int64(len(st.subs)))
		st.subs = nil
	}
	c.byAllow.at, c.ahead.at, c.served, c.waiters = nil, nil, 0, 0
	if c.pending != nil {
		if c.swapTimer != nil {
			c.swapTimer.Stop()
			c.swapAt.Store(0)
		}
		close(c.swapped)
		c.pending, c.swapped = nil, nil
	}
	c.running = false // the clock may be started again
	c.mu.Unlock()
	close(done)
}

// swap schedules one cycle per station (see Station.Swap, Group.Swap). A
// group swap goes on the air at once. A lone station's goes on the air at
// the first boundary the clock reaches: on a virtual clock at once if every
// want lies beyond it, on a paced one at the boundary's airtime.
func (c *clock) swap(cycles []*broadcast.Cycle, aligned bool) (<-chan int, error) {
	c.mu.Lock()
	var err error
	switch {
	case !c.running:
		err = fmt.Errorf("station: not on the air")
	case c.pending != nil:
		err = fmt.Errorf("station: swap already pending")
	}
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.catchUpLocked()
	swapped := make(chan int, 1)
	c.pending, c.swapped = cycles, swapped
	var buf [4]*Sub // the waiters a pull wakes, usually none
	woken := buf[:0]
	b := c.nextBoundaryLocked()
	switch {
	case !aligned:
		c.swapLocked(c.pos)
	case c.interval > 0:
		// The first reading of the clock at or past the boundary makes the
		// swap, and at the latest the boundary's airtime does.
		aired := c.t0.Add(time.Duration(b+1-c.base) * c.interval)
		c.swapTimer = time.AfterFunc(time.Until(aired), c.catchUp)
		c.swapAt.Store(int64(b))
	case c.served == 0 && c.ahead.min() > int64(b):
		// Every want lies beyond the boundary: jump there at once, as a
		// clock ticking on its own would have skipped to it. Otherwise the
		// first pull that reaches the boundary makes the swap.
		woken = c.pullLocked(int64(b), woken)
	}
	c.unlock(woken)
	return swapped, nil
}

// nextBoundaryLocked returns the first position p >= pos with p mod Len == 0
// on a lone station.
func (c *clock) nextBoundaryLocked() int {
	l := c.stations[0].Len()
	return c.pos + (l-c.pos%l)%l
}

// swapLocked puts the pending cycles on the air from position at. The new
// epochs are visible before the pending slot clears, so anyone who observes
// no pending swap (SwapPending) also observes the new version.
func (c *clock) swapLocked(at int) {
	for i, st := range c.stations {
		st.cur.Store(newEpoch(c.pending[i], at, st.cur.Load(), st.minNeededLocked()))
	}
	obsSwaps.Add(int64(len(c.stations)))
	c.swapped <- at // cap 1, one pending swap: never blocks
	close(c.swapped)
	c.pending, c.swapped = nil, nil
}

// pullLocked moves a virtual clock toward target — as far as it may go
// while a listener waits — as far as every subscription allows
// (Sub.allows). Every waiter whose want the clock passed is woken, only
// those: pullLocked appends them to woken for unlock. The caller holds mu.
func (c *clock) pullLocked(target int64, woken []*Sub) []*Sub {
	if c.waiters > 0 {
		target = parked
	}
	to := int(max(int64(c.pos), min(target, c.byAllow.min())))
	low := c.ahead.min() // the lowest want, or one the clock passed
	if c.served > 0 {
		low = int64(c.pos)
	}
	c.moveLocked(to, low)
	for c.ahead.min() < int64(c.pos) {
		sub := c.ahead.at[0].sub
		c.ahead.set(sub, parked)
		c.served++
		if sub.waiting {
			sub.waiting = false
			c.waiters--
			woken = append(woken, sub)
		}
	}
	return woken
}

// catchUpLocked moves a paced clock on the air to the position wall time
// has reached; a virtual clock stays where its listeners pulled it. The
// caller holds mu.
func (c *clock) catchUpLocked() {
	if c.interval > 0 && c.running {
		c.moveLocked(c.base+int(time.Since(c.t0)/c.interval), int64(c.pos))
	}
}

// catchUp is catchUpLocked for a caller that does not hold mu.
func (c *clock) catchUp() {
	c.mu.Lock()
	c.catchUpLocked()
	c.mu.Unlock()
}

// moveLocked moves the clock to position to, putting a lone station's
// pending swap on the air at the first boundary it reaches; positions below
// low are tallied as skipped. The caller holds mu.
func (c *clock) moveLocked(to int, low int64) {
	if c.pending != nil {
		if b := c.nextBoundaryLocked(); b <= to {
			c.passLocked(b, low)
			c.swapLocked(b)
		}
	}
	c.passLocked(to, low)
}

// unlock releases mu, and only then wakes the waiters a pull passed, so a
// woken goroutine does not queue on mu behind its waker.
func (c *clock) unlock(woken []*Sub) {
	c.mu.Unlock()
	for _, sub := range woken {
		sub.passed <- struct{}{} // cap 1, one wait at a time
	}
}

// setWantLocked moves sub's want and window end, and its place in the
// heaps; a parked subscription leaves them. The caller holds mu.
func (c *clock) setWantLocked(sub *Sub, want, limit int64) {
	if sub.want.Load() != parked && sub.slots[c.ahead.id] < 0 {
		c.served--
	}
	sub.want.Store(want)
	sub.limit = limit
	ahead, allow := want, parked
	if want != parked {
		allow = sub.allows()
	}
	if want < int64(c.pos) {
		ahead = parked
		c.served++
	}
	c.ahead.set(sub, ahead)
	c.byAllow.set(sub, allow)
}

// subHeap is a min-heap of subscriptions by key. Each subscription keeps
// its index in every heap (Sub.slots[id]), so a moved key re-sifts in
// O(log n).
type subHeap struct {
	id int
	at []heapAt
}

type heapAt struct {
	key int64
	sub *Sub
}

// set moves sub to key, putting it in the heap if it is not, or takes it
// out when key is parked.
func (h *subHeap) set(sub *Sub, key int64) {
	i := sub.slots[h.id]
	switch {
	case i < 0 && key == parked, i >= 0 && h.at[i].key == key:
		return
	case i < 0:
		i = len(h.at)
		h.at = append(h.at, heapAt{})
	case key == parked:
		sub.slots[h.id] = -1
		last := h.at[len(h.at)-1]
		if h.at = h.at[:len(h.at)-1]; i == len(h.at) {
			return
		}
		sub, key = last.sub, last.key // the last entry fills the hole
	}
	// Sift the hole at i up, then down, to where key belongs.
	for i > 0 && key < h.at[(i-1)/2].key {
		h.put(i, h.at[(i-1)/2])
		i = (i - 1) / 2
	}
	for c := 2*i + 1; c < len(h.at); c = 2*i + 1 {
		if c+1 < len(h.at) && h.at[c+1].key < h.at[c].key {
			c++
		}
		if key <= h.at[c].key {
			break
		}
		h.put(i, h.at[c])
		i = c
	}
	h.put(i, heapAt{key, sub})
}

func (h *subHeap) put(i int, e heapAt) {
	h.at[i] = e
	e.sub.slots[h.id] = i
}

// min returns the least key, parked for an empty heap.
func (h *subHeap) min() int64 { return h.minBut(nil) }

// minBut returns the least key of any subscription but skip: the root's,
// or if that is skip, the lesser of its children's.
func (h *subHeap) minBut(skip *Sub) int64 {
	m := parked
	for _, e := range h.at[:min(3, len(h.at))] {
		if e.sub != skip {
			m = min(m, e.key)
		}
	}
	return m
}

// passLocked moves the clock to position to. air_station_packets_total
// counts every position passed on every station; those below every want
// (low) are tallied as skipped as well. The caller holds mu.
func (c *clock) passLocked(to int, low int64) {
	if to <= c.pos {
		return
	}
	k := int64(len(c.stations))
	obsPackets.Add(int64(to-c.pos) * k)
	if n := min(int64(to), low) - int64(c.pos); n > 0 {
		obsSkipped.Add(n * k)
	}
	c.pos = to
	c.reached.Store(int64(to))
}

// interval returns the per-packet airtime of a paced clock (0 = virtual).
func (cfg Config) interval() time.Duration {
	if cfg.BitsPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(cfg.PacketBits) / float64(cfg.BitsPerSecond) * float64(time.Second))
}

// Station streams a broadcast cycle to its subscribers.
type Station struct {
	cfg Config
	clk *clock // its own, or its group's

	// cur is the epoch on the air: swapped under the clock's mutex, loaded
	// lock-free by subscriber-goroutine reads (Len, receptions).
	cur atomic.Pointer[epoch]
	// subs is the open subscriptions, guarded by the clock's mutex.
	subs []*Sub
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
	s := &Station{cfg: cfg}
	s.clk = newClock([]*Station{s})
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
	s.clk.mu.Lock()
	defer s.clk.mu.Unlock()
	s.clk.catchUpLocked()
	return s.clk.pos
}

// ErrStarted reports that a Start found the station (or group) already on
// the air. Callers wanting idempotent start semantics match it with
// errors.Is and carry on; anything else from Start is a real failure.
var ErrStarted = errors.New("station: already started")

// Start puts the station on the air. Transmission stops when ctx is
// cancelled or Stop is called; either way every open subscription leaves
// the air (its feed then degrades to deterministic replay, so in-flight
// queries still terminate). A stopped station may be Started again.
func (s *Station) Start(ctx context.Context) error { return s.clk.start(ctx) }

// Swap schedules c to replace the cycle on the air at the next cycle
// boundary: the first position p with p mod Len == 0 the clock reaches, so
// the outgoing version always completes its final cycle and no cycle ever
// mixes two versions. The returned channel delivers the absolute swap
// position once the swap happens; if the station leaves the air first the
// swap is abandoned and the channel is closed without a value (receive with
// comma-ok to tell the two apart). One swap may be pending at a time;
// stations driven by a Group swap through Group.Swap instead, which trades
// boundary alignment for cross-member atomicity.
func (s *Station) Swap(c *broadcast.Cycle) (<-chan int, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("station: swap to empty cycle")
	}
	if len(s.clk.stations) > 1 {
		return nil, fmt.Errorf("station: a group member swaps through Group.Swap")
	}
	return s.clk.swap([]*broadcast.Cycle{c}, true)
}

// minNeededLocked returns the oldest absolute position any current
// subscriber can still request — the epoch-history pruning horizon. Want
// positions are non-decreasing (a broadcast cannot be rewound), so nothing
// below the minimum want is ever served again; with no subscribers the
// horizon is the clock itself. The caller holds the clock's mutex.
func (s *Station) minNeededLocked() int {
	low := int64(s.clk.pos)
	for _, sub := range s.subs {
		low = min(low, sub.want.Load())
	}
	return int(low)
}

// parked is the want of a parked subscription (Sub.Park): later than any
// position the air will ever reach, so nothing is delivered to it and it
// never holds the clock.
const parked = int64(1) << 62

// SwapPending reports whether a scheduled swap has not yet reached the
// air. Because a swap clears only after the new epoch is visible (and an
// abandoned one only on shutdown), "no pending swap and still the old
// version" means the swap will never happen.
func (s *Station) SwapPending() bool {
	s.clk.mu.Lock()
	defer s.clk.mu.Unlock()
	s.clk.catchUpLocked()
	return s.clk.pending != nil
}

// Stop takes the station off the air and waits until it is. It is safe to
// call multiple times and after context cancellation.
func (s *Station) Stop() { s.clk.stop() }

// Subscribers returns the number of currently open subscriptions.
func (s *Station) Subscribers() int {
	s.clk.mu.Lock()
	defer s.clk.mu.Unlock()
	return len(s.subs)
}

// Subscribe tunes a new listener in at the station's current position, with
// a private deterministic loss pattern (rate in [0,1), seeded like
// broadcast.NewChannel). The subscription is a broadcast.Feed; wrap it in a
// tuner with broadcast.NewFeedTuner(sub, sub.Start()). Close it when the
// query is done. On a virtual clock it lets the clock pass only its want and
// the window it declares (Prefetch), so a dozing listener costs the station
// nothing and tune-in positions are those of an air that waited for it. A
// listener that streams the air declares its run the same way: a wire pump
// declares its remote's credit window. Park the subscription whenever the
// radio tunes to a sibling channel.
func (s *Station) Subscribe(lossRate float64, seed int64) (*Sub, error) {
	if lossRate < 0 || lossRate >= 1 {
		return nil, fmt.Errorf("station: loss rate %v outside [0,1)", lossRate)
	}
	c := s.clk
	sub := &Sub{st: s, loss: lossRate, seed: uint64(seed), slots: noSlots}
	sub.want.Store(parked)
	if c.interval == 0 {
		sub.passed = make(chan struct{}, 1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.running {
		return nil, fmt.Errorf("station: not on the air")
	}
	if s.cfg.MaxSubscribers > 0 && len(s.subs) >= s.cfg.MaxSubscribers {
		obsRefused.Inc()
		return nil, fmt.Errorf("%w (%d subscribers)", ErrFull, len(s.subs))
	}
	c.catchUpLocked()
	sub.start = c.pos
	sub.t0, sub.base, sub.off = c.t0, c.base, c.done
	if c.interval == 0 {
		c.setWantLocked(sub, int64(sub.start), 0)
	} else {
		sub.want.Store(int64(sub.start))
	}
	s.subs = append(s.subs, sub)
	obsSubscribers.Inc()
	return sub, nil
}

// Sub is one listener's subscription: its view of the air from its tune-in
// position onward. It implements broadcast.Feed, so the ordinary Tuner — and
// therefore every scheme client — runs unchanged on top of it.
//
// At, Span, Ready, Start and Close must be called from the subscriber's own
// goroutine; the station side is concurrency-safe.
type Sub struct {
	st    *Station
	loss  float64
	seed  uint64
	start int

	// want is the lowest absolute position the listener still needs (parked
	// while it needs none): on a virtual clock nothing below it is passed
	// for it, modelling a sleeping radio; on both clocks it bounds the epoch
	// history. limit is the end (exclusive) of a declared contiguous listen
	// window (Prefetch), guarded by the clock's mutex.
	want  atomic.Int64
	limit int64
	// slots is the subscription's index in each of the clock's heaps (-1
	// outside it), and waiting marks an At blocked until the clock passes
	// its want, guarded by the clock's mutex; passed wakes it then, or when
	// the station leaves the air (virtual clock only). offAir reports, under
	// the clock's mutex, that the station left the air.
	slots   [2]int
	waiting bool
	passed  chan struct{}
	offAir  bool
	// A paced subscription's copy of its run of the clock, read without the
	// mutex: position base began to air at t0, and off closes when the run
	// ends.
	t0   time.Time
	base int
	off  <-chan struct{}
	// missed counts the positions a paced clock served as lost because the
	// listener asked for them more than Buffer positions behind the air.
	missed atomic.Int64
}

// allows returns the position below which this unparked subscription lets
// the clock pass: its want and its declared window. The caller holds the
// clock's mutex.
func (s *Sub) allows() int64 { return max(s.want.Load()+1, s.limit) }

// Start returns the tune-in position: the first absolute position this
// subscription is guaranteed to receive.
func (s *Sub) Start() int { return s.start }

// Len returns the current cycle length in packets (broadcast.Feed). It
// changes when a swap installs a cycle of a different length (a rebuilt
// version of another shape); clients always read it live through the tuner,
// so their cyclic arithmetic follows the air.
func (s *Sub) Len() int { return s.st.cur.Load().cycle.Len() }

// Missed returns how many positions this subscription served to its
// listener as lost because it asked for them more than Buffer positions
// behind a paced air. Positions the tuner slept over are never asked for,
// so Missed is always a subset of what the listener's tuner reports as
// Lost — subtracting the two isolates injected simulator loss.
func (s *Sub) Missed() int { return int(s.missed.Load()) }

// At blocks until the transmission at absolute position abs has crossed the
// air and returns it (broadcast.Feed). On a virtual clock it pulls the clock
// past abs itself, waiting only while another subscription holds it. On a
// paced clock it sleeps until abs has aired, and a position asked for more
// than Buffer positions behind the air is reported as lost, exactly like a
// corrupted packet, and recovered by the client in a later cycle. If the
// station leaves the air mid-query the feed degrades to deterministic
// replay of the cycle under the same loss pattern, so the query still
// terminates with the same answer.
//
//air:noalloc
func (s *Sub) At(abs int) (packet.Packet, bool) {
	c := s.st.clk
	if c.interval > 0 {
		pkts, lost := s.pacedSpan(abs, 1)
		if lost != 0 {
			return packet.Packet{Kind: pkts[0].Kind}, false
		}
		return pkts[0], true
	}
	if int64(abs) < c.reached.Load() {
		return s.replayAt(abs) // passed already: abs is fixed
	}
	var buf [4]*Sub
	woken := buf[:0]
	c.mu.Lock()
	if !s.offAir {
		c.setWantLocked(s, int64(abs), s.limit)
		woken = c.pullLocked(s.allows(), woken)
	}
	wait := !s.offAir && c.pos <= abs
	if wait {
		s.waiting = true
		c.waiters++
	}
	c.unlock(woken)
	if wait {
		<-s.passed // the clock passed abs (the waker set through), or the air is off
	}
	return s.replayAt(abs)
}

// Span receives the positions from abs on as one view (broadcast.Spanner).
// On a virtual clock it declares want abs and window end abs+n in one move
// of the clock, waits only while another listener holds the clock at or
// below abs, and serves every position the clock has passed, cut at the end
// of abs's epoch and of its cycle, so one view never spans a swap. A paced
// clock serves what has aired, as pacedSpan says.
//
//air:noalloc
func (s *Sub) Span(abs, n int) ([]packet.Packet, uint64) {
	c := s.st.clk
	if c.interval > 0 {
		return s.pacedSpan(abs, n)
	}
	end := int(c.reached.Load()) // positions below it are fixed
	if abs >= end {
		var buf [4]*Sub
		woken := buf[:0]
		c.mu.Lock()
		end = math.MaxInt // off the air: the replay serves anything
		if !s.offAir {
			c.setWantLocked(s, int64(abs), int64(abs+n))
			woken = c.pullLocked(s.allows(), woken)
			end = c.pos
		}
		wait := end <= abs
		if wait {
			s.waiting = true
			c.waiters++
		}
		c.unlock(woken)
		if wait {
			<-s.passed // the clock passed abs, or the air is off
			end = max(int(c.reached.Load()), abs+1)
		}
	}
	// Up to n replayAt calls in one.
	ep, next := s.st.cur.Load().tenure(abs)
	l := ep.cycle.Len()
	i := abs % l
	k := min(n, broadcast.MaxSpan, l-i, next-abs, end-abs)
	return ep.cycle.Packets[i : i+k], broadcast.LostMask(s.seed, abs, k, s.loss)
}

// nap is the longest a paced listener sleeps at a time: how soon one
// asleep for a far position notices that the station left the air.
const nap = 100 * time.Millisecond

// pacedSpan is Span on a paced clock. It serves the positions from abs on
// that have aired, cut at MaxSpan, at Buffer, and at the end of abs's epoch
// and of its cycle. If abs has not aired it sleeps, once (a nap at a
// time), until the last position the view will serve has — cut as well
// before a pending swap. A run asked for more than Buffer positions behind
// the air is served as lost and counted as missed; off the air the replay
// serves anything.
func (s *Sub) pacedSpan(abs, n int) ([]packet.Packet, uint64) {
	c := s.st.clk
	s.want.Store(int64(abs))
	n = min(n, broadcast.MaxSpan, s.st.cfg.Buffer)
	el, end, on := s.aired()
	for on && end <= abs {
		ep, next := s.st.cur.Load().tenure(abs)
		l := ep.cycle.Len()
		last := min(abs+n, abs-abs%l+l, next, c.swapAfter(abs)) - 1
		time.Sleep(min(time.Duration(last+1-s.base)*c.interval-el, nap))
		el, end, on = s.aired()
	}
	if !on {
		end = math.MaxInt
	}
	ep, next := s.st.cur.Load().tenure(abs)
	l := ep.cycle.Len()
	i := abs % l
	k := min(n, l-i, next-abs, end-abs)
	if behind := end - s.st.cfg.Buffer - abs; on && behind > 0 {
		k = min(k, behind)
		s.miss(abs, k)
		return ep.cycle.Packets[i : i+k], ^uint64(0) >> (64 - k)
	}
	return ep.cycle.Packets[i : i+k], broadcast.LostMask(s.seed, abs, k, s.loss)
}

// aired reads a paced clock: how long the subscription's run has been on
// the air, the first position not yet aired, and whether the subscription
// is still on the air. A reading ahead of the clock moves the clock there,
// so a swap it passes is on the air before any position from it is served.
func (s *Sub) aired() (el time.Duration, end int, on bool) {
	c := s.st.clk
	el = time.Since(s.t0)
	end = s.base + int(el/c.interval)
	select {
	case <-s.off:
		return el, end, false
	default:
	}
	if int64(end) > c.reached.Load() {
		c.catchUp()
	}
	return el, end, true
}

// swapAfter returns the position of a paced lone station's swap after abs,
// or MaxInt.
func (c *clock) swapAfter(abs int) int {
	if b := int(c.swapAt.Load()); b > abs {
		return b
	}
	return math.MaxInt
}

// miss counts k positions from abs served as lost because the listener
// asked for them more than Buffer positions behind the air, and logs a
// subscription's first miss: a persistent one means Buffer or the client
// is undersized.
func (s *Sub) miss(abs, k int) {
	obsDropped.Add(int64(k))
	if s.missed.Add(int64(k)) == int64(k) {
		log.Printf("station: subscriber more than %d positions behind the air at pos %d; serving as lost",
			s.st.cfg.Buffer, abs)
	}
}

// Ready reports whether At(abs) would return without waiting for the
// station: on a virtual clock, the clock has passed abs or no other
// subscription holds it below; on a paced one, abs has aired; and always
// once the station has left the air. It never blocks and does not move the
// want, so the station cannot tell it was asked. A wire pump asks it
// before each At: a pump holding unsent frames writes them out rather than
// wait for the air (wire.Broadcaster).
func (s *Sub) Ready(abs int) bool {
	c := s.st.clk
	if c.interval > 0 {
		_, end, on := s.aired()
		return !on || abs < end
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return s.offAir || abs < c.pos || int64(abs) < c.byAllow.minBut(s)
}

// replayAt computes the transmission at abs from the epoch chain: the
// version on the air there, under this subscription's loss pattern —
// identical to a broadcast.Channel with the same seed. It serves every
// reception on a virtual clock.
func (s *Sub) replayAt(abs int) (packet.Packet, bool) {
	ep := s.st.cur.Load().find(abs)
	p := ep.cycle.Packets[abs%ep.cycle.Len()]
	if broadcast.Lost(s.seed, abs, s.loss) {
		return packet.Packet{Kind: p.Kind}, false
	}
	return p, true
}

// declare publishes the listener's want and window end. On a virtual clock
// both change under the clock's mutex, with the move that may follow: a
// risen want can free the clock for a waiting listener. Nothing holds a
// paced clock, so there the want only bounds the epoch history.
func (s *Sub) declare(want, limit int64) {
	c := s.st.clk
	if c.interval > 0 {
		s.want.Store(want)
		return
	}
	var buf [4]*Sub
	woken := buf[:0]
	c.mu.Lock()
	if !s.offAir {
		c.setWantLocked(s, want, limit)
		woken = c.pullLocked(0, woken)
	}
	c.unlock(woken)
}

// Prefetch declares that the listener will receive the n positions
// [from, from+n) back to back, and so nothing before from: its want rises
// to from, and on a virtual clock the subscription lets the clock run to
// from+n — a session's run, or the credit window a wire pump's remote
// granted. What the listener receives is unchanged, making this purely a
// batching hint (broadcast.Prefetcher). A parked subscription stays parked:
// only WakeAt or At re-arm it.
//
//air:noalloc
func (s *Sub) Prefetch(from, n int) {
	s.declare(max(int64(from), s.want.Load()), int64(from+n))
}

// WakeAt declares the next absolute position the listener needs without
// receiving anything: positions below it are skipped (the radio sleeps),
// and the subscription holds a virtual clock there. A multi-channel
// radio calls this on the channel it is hopping to before parking the
// channel it is leaving, so the shared clock is never unheld.
func (s *Sub) WakeAt(abs int) { s.declare(int64(abs), s.limit) }

// Park puts the subscription to sleep indefinitely: nothing is delivered
// to it and it no longer holds the clock. WakeAt (or At) re-arms it.
func (s *Sub) Park() { s.declare(parked, s.limit) }

// Close tunes the listener out: the station stops delivering to it and
// releases it. Safe to call more than once; never blocks on the station.
func (s *Sub) Close() {
	c := s.st.clk
	var buf [4]*Sub
	woken := buf[:0]
	c.mu.Lock()
	// Gone already if the station left the air (halt).
	if i := slices.Index(s.st.subs, s); i >= 0 {
		s.st.subs = slices.Delete(s.st.subs, i, i+1)
		obsSubscribers.Dec()
		if c.interval == 0 {
			c.setWantLocked(s, parked, 0)
			woken = c.pullLocked(0, woken)
		}
	}
	c.unlock(woken)
}
