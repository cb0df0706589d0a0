package station

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broadcast"
)

// Group drives several stations from one transmit goroutine on a single
// global tick sequence: every member transmits tick T (in member order)
// before any member transmits T+1.
//
// It is the cheap way to run a multi-channel broadcast's K shard stations
// in lockstep: no shard races another past a tick, and one goroutine does
// it without K transmit loops handing a barrier around. An exact
// subscription's clock hold (see Station.deliver) blocks the group
// goroutine and therefore every member. On a virtual clock the members
// also fast-forward together: whenever every listener's want lies ahead,
// all of them move by the same number of ticks at once (fastForward).
//
// Member stations must not be Started individually; the group adopts them.
type Group struct {
	stations []*Station
	// wantGen is the members' shared want generation (Sub.setWant): a radio
	// hops between members, so one counter has to cover all of them.
	wantGen atomic.Uint64

	mu      sync.Mutex
	running bool
	cancel  context.CancelFunc
	done    chan struct{}
	// pending holds one cycle per member awaiting the group swap, applied to
	// every member at the same global tick; swapped reports that tick.
	pending []*broadcast.Cycle
	swapped chan int
}

// NewGroup returns a group over the given stations. All members must share
// one pacing configuration.
func NewGroup(stations []*Station) (*Group, error) {
	if len(stations) == 0 {
		return nil, fmt.Errorf("station: empty group")
	}
	cfg := stations[0].cfg
	for _, st := range stations {
		if st.cfg.BitsPerSecond != cfg.BitsPerSecond || st.cfg.PacketBits != cfg.PacketBits {
			return nil, fmt.Errorf("station: grouped stations disagree on pacing")
		}
	}
	g := &Group{stations: stations}
	for _, st := range stations {
		st.wantGen = &g.wantGen
	}
	return g, nil
}

// Start puts every member on the air under one transmit loop. Transmission
// stops when ctx is cancelled or Stop is called.
func (g *Group) Start(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running {
		return fmt.Errorf("group %w", ErrStarted)
	}
	for i, st := range g.stations {
		st.mu.Lock()
		if st.running {
			st.mu.Unlock()
			for _, prev := range g.stations[:i] {
				prev.mu.Lock()
				prev.running = false
				prev.mu.Unlock()
			}
			return fmt.Errorf("group member %w", ErrStarted)
		}
		st.running = true
		st.mu.Unlock()
	}
	ctx, g.cancel = context.WithCancel(ctx)
	g.done = make(chan struct{})
	g.running = true
	go g.run(ctx, g.done)
	return nil
}

// Swap schedules cycles[i] to replace member i's cycle on the air. The
// swap is atomic across the group: every member switches at the same
// global tick (before any member transmits it), so at no instant do two
// channels of a multi-channel broadcast carry different versions. Unlike a
// single station's boundary-aligned Swap, members with different cycle
// lengths have no common boundary, so the group cuts at a tick: the
// incoming cycles enter the rotation at that tick's phase. The returned
// channel delivers the swap tick once applied; if the group stops first
// the swap is abandoned and the channel closes without a value. One swap
// may be pending at a time.
func (g *Group) Swap(cycles []*broadcast.Cycle) (<-chan int, error) {
	if len(cycles) != len(g.stations) {
		return nil, fmt.Errorf("station: group swap got %d cycles for %d members", len(cycles), len(g.stations))
	}
	for i, c := range cycles {
		if c.Len() == 0 {
			return nil, fmt.Errorf("station: group swap: member %d cycle is empty", i)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.running {
		return nil, fmt.Errorf("station: group not on the air")
	}
	if g.pending != nil {
		return nil, fmt.Errorf("station: group swap already pending")
	}
	g.pending = cycles
	g.swapped = make(chan int, 1)
	return g.swapped, nil
}

// applyPendingSwap installs a pending swap on every member; called by the
// group loop between ticks, so the cut is atomic across members. The
// pending slot clears only after every member carries the new cycle, so
// anyone who observes no pending swap (SwapPending) also observes the new
// versions.
func (g *Group) applyPendingSwap() {
	g.mu.Lock()
	cycles := g.pending
	g.mu.Unlock()
	if cycles == nil {
		return
	}
	tick := 0
	for i, st := range g.stations {
		tick = st.forceSwap(cycles[i])
	}
	g.mu.Lock()
	swapped := g.swapped
	g.pending, g.swapped = nil, nil
	g.mu.Unlock()
	swapped <- tick // cap 1, one pending swap: never blocks
	close(swapped)
}

// SwapPending reports whether a scheduled group swap has not yet reached
// the air.
func (g *Group) SwapPending() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pending != nil
}

// Stop takes every member off the air and waits for the transmit loop to
// exit. Safe to call multiple times and after context cancellation.
func (g *Group) Stop() {
	g.mu.Lock()
	cancel, done := g.cancel, g.done
	g.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// slack returns how many ticks every member can pass before the first one
// reaches a position a listener wants, subs[i] being member i's listeners:
// the minimum, over the members, of lowest want minus clock. Zero or less
// means there is nothing to skip: some listener is due now, or nobody is
// tuned in at all. Only the group goroutine moves the members' clocks, so
// it reads them here without their locks.
func (g *Group) slack(subs [][]*Sub) int {
	n := parked
	for i, st := range g.stations {
		if low := lowestWant(subs[i]); low != parked {
			n = min(n, low-int64(st.pos))
		}
	}
	if n == parked {
		return 0
	}
	return int(n)
}

// fastForward moves every member's virtual clock by the same number of
// ticks, straight to the first tick any listener wants, so the lockstep
// tick holds across the jump; it runs between ticks, after a pending swap
// was applied, so the atomic group cut holds too. An unlocked look at the
// listeners the last tick was delivered to (subs, which it refreshes)
// decides whether a jump is worth the locks. The scan that counts then
// runs over the current listeners with every member locked — no Subscribe
// can tune in below the target on a member the scan already passed — and
// is discarded if the want generation moved under it (a radio hopped
// between two members mid-scan, see Sub.setWant); the group then simply
// ticks.
func (g *Group) fastForward(subs [][]*Sub) {
	if g.slack(subs) <= 0 {
		return
	}
	for i, st := range g.stations {
		st.mu.Lock()
		subs[i] = st.subList
	}
	gen := g.wantGen.Load()
	if n := g.slack(subs); n > 0 && g.wantGen.Load() == gen {
		for _, st := range g.stations {
			st.skipLocked(n)
		}
	}
	for _, st := range g.stations {
		st.mu.Unlock()
	}
}

// run is the group transmit loop: one global tick per iteration, delivered
// member by member.
func (g *Group) run(ctx context.Context, done chan struct{}) {
	defer close(done)
	defer func() {
		for _, st := range g.stations {
			st.closeSubs()
		}
		g.mu.Lock()
		if g.pending != nil {
			// Abandon a swap that never reached the air: close its channel
			// without a value so waiters unblock.
			close(g.swapped)
			g.pending, g.swapped = nil, nil
		}
		g.running = false
		g.mu.Unlock()
	}()

	interval := g.stations[0].cfg.interval()
	started := time.Now()
	transmitted := 0
	subs := make([][]*Sub, len(g.stations)) // each member's listeners at its last tick
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		if interval > 0 {
			due := started.Add(time.Duration(transmitted) * interval)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
			}
		}
		g.applyPendingSwap()
		if interval == 0 {
			g.fastForward(subs)
		}
		listeners := 0
		for i, st := range g.stations {
			subs[i] = st.step(ctx, false)
			listeners += len(subs[i])
		}
		transmitted++
		if listeners == 0 && interval == 0 {
			// Virtual clock with nobody tuned in: don't burn a core.
			time.Sleep(50 * time.Microsecond)
		}
	}
}
