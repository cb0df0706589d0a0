package station

import (
	"context"
	"fmt"

	"repro/internal/broadcast"
)

// Group runs several stations on one clock: every member transmits position
// T before any member transmits T+1, and every subscription of every member
// has a say in how far the clock may move.
//
// It is how a multi-channel broadcast's K shard stations stay in lockstep:
// a radio hopping between members never finds that a sibling raced past the
// tick it will hop to. A paced group has one transmit goroutine for all its
// members; a virtual one has none.
//
// Member stations must not be Started or Swapped individually; the group
// adopts them.
type Group struct {
	clk *clock
}

// NewGroup returns a group over the given stations. All members must share
// one pacing configuration and start position, and none may be on the air.
func NewGroup(stations []*Station) (*Group, error) {
	if len(stations) == 0 {
		return nil, fmt.Errorf("station: empty group")
	}
	cfg := stations[0].cfg
	for _, st := range stations {
		if st.cfg.BitsPerSecond != cfg.BitsPerSecond || st.cfg.PacketBits != cfg.PacketBits || st.cfg.Start != cfg.Start {
			return nil, fmt.Errorf("station: grouped stations disagree on pacing or start")
		}
		st.clk.mu.Lock()
		on := st.clk.running
		st.clk.mu.Unlock()
		if on {
			return nil, fmt.Errorf("station: group member already on the air")
		}
	}
	c := newClock(stations)
	for _, st := range stations {
		st.clk = c
	}
	return &Group{clk: c}, nil
}

// Start puts every member on the air on the group's clock. Transmission
// stops when ctx is cancelled or Stop is called.
func (g *Group) Start(ctx context.Context) error {
	if err := g.clk.start(ctx); err != nil {
		return fmt.Errorf("group %w", err)
	}
	return nil
}

// Swap schedules cycles[i] to replace member i's cycle on the air. The
// swap is atomic across the group: every member switches at the same
// position (before any member transmits it), so at no instant do two
// channels of a multi-channel broadcast carry different versions. Unlike a
// single station's boundary-aligned Swap, members with different cycle
// lengths have no common boundary, so the group cuts at a tick — the
// current one on a virtual clock, at once; the next one a paced clock
// transmits — and the incoming cycles enter the rotation at that tick's
// phase. The returned channel delivers the swap tick once applied; if the
// group stops first the swap is abandoned and the channel closes without a
// value. One swap may be pending at a time.
func (g *Group) Swap(cycles []*broadcast.Cycle) (<-chan int, error) {
	if len(cycles) != len(g.clk.stations) {
		return nil, fmt.Errorf("station: group swap got %d cycles for %d members", len(cycles), len(g.clk.stations))
	}
	for i, c := range cycles {
		if c.Len() == 0 {
			return nil, fmt.Errorf("station: group swap: member %d cycle is empty", i)
		}
	}
	return g.clk.swap(cycles, false)
}

// SwapPending reports whether a scheduled group swap has not yet reached
// the air.
func (g *Group) SwapPending() bool { return g.clk.stations[0].SwapPending() }

// Stop takes every member off the air and waits until they are. Safe to
// call multiple times and after context cancellation.
func (g *Group) Stop() { g.clk.stop() }
