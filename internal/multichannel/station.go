package multichannel

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/packet"
	"repro/internal/station"
)

// Station is a live K-channel broadcast: one station.Station per channel
// cycle, all advancing on one global tick sequence (a station.Group drives
// them from a single transmit goroutine), so global tick T crosses every
// channel before tick T+1 crosses any. Subscribers get a channel-hopping Rx
// whose virtual-clock behaviour is bit-identical to an offline Air with the
// same tune-in tick, loss rate and seed.
type Station struct {
	stations []*station.Station
	group    *station.Group // drives the shards when K > 1
	cfg      station.Config

	// plan is the sharding plan on (or about to leave) the air; next is a
	// swapped-in plan waiting for the shard stations to apply it. The pair
	// reconciles on read against the version the shards actually transmit,
	// so a Subscribe between Swap and its tick-aligned application still
	// pairs the directory with the air it describes.
	mu   sync.Mutex
	plan *Plan
	next *Plan
}

// NewStation builds the K shard stations for the plan. cfg applies to every
// shard; cfg.Start must be zero (the global clock starts at tick 0 on
// every channel).
func NewStation(p *Plan, cfg station.Config) (*Station, error) {
	if cfg.Start != 0 {
		return nil, fmt.Errorf("multichannel: shard stations start at tick 0, got Start=%d", cfg.Start)
	}
	m := &Station{plan: p, cfg: cfg}
	for c, cyc := range p.Channels {
		st, err := station.New(cyc, cfg)
		if err != nil {
			return nil, fmt.Errorf("multichannel: channel %d: %w", c, err)
		}
		m.stations = append(m.stations, st)
	}
	if p.K() > 1 {
		g, err := station.NewGroup(m.stations)
		if err != nil {
			return nil, fmt.Errorf("multichannel: %w", err)
		}
		m.group = g
	}
	return m, nil
}

// reconcileLocked promotes a pending plan once the shard stations have
// applied its swap (their cycle version equals the next plan's), and drops
// it if the swap was abandoned (the station or group stopped with it still
// pending — no pending swap, old version still on the air); the caller
// holds mu. The ordering guarantee behind the second test: the station
// side clears its pending slot only after the new epoch is visible, so
// "not pending and not applied" can only mean abandoned.
func (m *Station) reconcileLocked() {
	if m.next == nil {
		return
	}
	if m.stations[0].Cycle().Version == m.next.Logical.Version {
		m.plan, m.next = m.next, nil
		return
	}
	pending := false
	if m.group != nil {
		pending = m.group.SwapPending()
	} else {
		pending = m.stations[0].SwapPending()
	}
	if !pending {
		// Not pending: if it applied between the version check above and
		// here, the new version is visible now; otherwise it never will be.
		if m.stations[0].Cycle().Version == m.next.Logical.Version {
			m.plan, m.next = m.next, nil
		} else {
			m.next = nil
		}
	}
}

// currentPlan returns the plan matching the air.
func (m *Station) currentPlan() *Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reconcileLocked()
	return m.plan
}

// K returns the channel count.
func (m *Station) K() int { return len(m.stations) }

// Len returns the logical cycle length in packets.
func (m *Station) Len() int { return m.currentPlan().LogicalLen() }

// Version returns the cycle version currently on the air.
func (m *Station) Version() uint32 { return m.stations[0].Cycle().Version }

// Swap schedules p2 to replace the plan on the air: every shard station
// swaps to its new channel cycle at one global tick (station.Group.Swap's
// atomicity guarantee; a K=1 station swaps at its cycle boundary), and
// subscribers arriving after that tick get p2's directory. p2 must shard
// the same channel count and carry a cycle version different from the
// current plan's — versions are how the air and the directory are matched.
// Radios subscribed before the swap keep their old directory; they detect
// the swap (version stamps flip, Rx.Stale) and their clients re-enter on a
// fresh subscription. The returned channel reports the swap tick.
func (m *Station) Swap(p2 *Plan) (<-chan int, error) {
	if p2.K() != m.K() {
		return nil, fmt.Errorf("multichannel: swap changes channel count %d -> %d", m.K(), p2.K())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reconcileLocked()
	if m.next != nil {
		return nil, fmt.Errorf("multichannel: swap already pending")
	}
	if p2.Logical.Version == m.plan.Logical.Version {
		return nil, fmt.Errorf("multichannel: swap requires a new cycle version (have %d)", p2.Logical.Version)
	}
	var applied <-chan int
	var err error
	if m.group != nil {
		applied, err = m.group.Swap(p2.Channels)
	} else {
		applied, err = m.stations[0].Swap(p2.Channels[0])
	}
	if err != nil {
		return nil, err
	}
	m.next = p2
	return applied, nil
}

// Rate returns the bit rate queries should be costed at (per channel; a
// K-channel broadcast spends K times the spectrum).
func (m *Station) Rate() int { return m.stations[0].Rate() }

// Subscribers returns the number of radios currently subscribed. Every Rx
// holds one subscription on every shard, so shard 0's count is the radio
// count.
func (m *Station) Subscribers() int { return m.stations[0].Subscribers() }

// Start puts every shard on the air under one context.
func (m *Station) Start(ctx context.Context) error {
	if m.group != nil {
		return m.group.Start(ctx)
	}
	return m.stations[0].Start(ctx)
}

// Stop takes every shard off the air and waits for the transmit loop.
func (m *Station) Stop() {
	if m.group != nil {
		m.group.Stop()
		return
	}
	m.stations[0].Stop()
}

// Subscribe tunes a channel-hopping radio in at the current global tick:
// one exact subscription per channel (all but the start channel parked),
// with per-channel loss patterns derived from seed exactly like an offline
// Air. Close the Rx when the query is done.
func (m *Station) Subscribe(lossRate float64, seed int64, opts RxOptions) (*Rx, error) {
	if opts.Channel < 0 || opts.Channel >= m.K() {
		return nil, fmt.Errorf("multichannel: channel %d outside [0,%d)", opts.Channel, m.K())
	}
	if opts.Cold && m.K() == 1 {
		opts.Cold = false
	}
	plan := m.currentPlan()
	src := &liveSource{subs: make([]*station.Sub, m.K())}
	t0 := 0
	for c, st := range m.stations {
		sub, err := st.Subscribe(lossRate, int64(chanSeed(seed, c)))
		if err != nil {
			src.Close()
			return nil, err
		}
		src.subs[c] = sub
		t0 = max(t0, sub.Start())
	}
	// Sibling shards may already have transmitted up to one tick past the
	// start-channel hold when the subscriptions land; tuning in two ticks
	// later makes the first reception deterministic on every channel.
	t0 += 2
	// Park everything except the start channel: its initial want (its own
	// tune-in position) holds the shared clock until the first reception.
	for c, sub := range src.subs {
		if c != opts.Channel {
			sub.Park()
		}
	}
	dir := plan.Dir
	if opts.Cold {
		dir = nil
	}
	return NewRx(src, dir, t0, opts.Channel), nil
}

// liveSource adapts K live subscriptions to the Source interface. The
// radio's single-goroutine discipline carries over: all methods are called
// from the subscriber's goroutine.
type liveSource struct {
	subs []*station.Sub
}

func (s *liveSource) K() int { return len(s.subs) }

func (s *liveSource) Receive(channel, tick int) (packet.Packet, bool) {
	return s.subs[channel].At(tick)
}

// Span receives a run of consecutive ticks on one channel's subscription.
//
//air:noalloc
func (s *liveSource) Span(channel, tick, n int) ([]packet.Packet, uint64) {
	return s.subs[channel].Span(tick, n)
}

// Hop re-arms the destination channel at the target tick before parking
// the origin, so at every instant at least one subscription holds the
// shared clock — the air can never race past a tick the radio still needs.
func (s *liveSource) Hop(from, to, tick int) {
	s.subs[to].WakeAt(tick)
	s.subs[from].Park()
}

// Prefetch forwards an upcoming contiguous reception to the channel's
// subscription so the station can batch delivery into its buffer.
func (s *liveSource) Prefetch(channel, fromTick, n int) {
	s.subs[channel].Prefetch(fromTick, n)
}

// Missed sums the positions the radio's shard subscriptions served to it
// as lost because it fell more than Buffer behind a paced air (zero on a
// virtual clock) — a subset of the tuner's lost count.
func (s *liveSource) Missed() int {
	n := 0
	for _, sub := range s.subs {
		if sub != nil {
			n += sub.Missed()
		}
	}
	return n
}

func (s *liveSource) Close() {
	for _, sub := range s.subs {
		if sub != nil {
			sub.Close()
		}
	}
}
