package multichannel

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/packet"
)

// Air is the offline K-channel counterpart of broadcast.Channel: every
// channel replays its cycle forever on the shared global clock, with a
// deterministic per-channel Bernoulli loss pattern derived from one seed
// (channel 0 keeps the seed itself, so a K=1 Air is bit-identical to a
// broadcast.Channel with the same cycle, rate and seed).
type Air struct {
	plan *Plan
	loss float64
	seed int64
}

// NewAir returns an offline K-channel air for the plan.
func NewAir(p *Plan, lossRate float64, seed int64) (*Air, error) {
	if lossRate < 0 || lossRate >= 1 {
		return nil, fmt.Errorf("multichannel: loss rate %v outside [0,1)", lossRate)
	}
	return &Air{plan: p, loss: lossRate, seed: seed}, nil
}

// Plan returns the sharding plan on the air.
func (a *Air) Plan() *Plan { return a.plan }

// RxOptions tune a receiver.
type RxOptions struct {
	// Channel is the channel the radio tunes in on (default 0).
	Channel int
	// Cold makes the radio bootstrap the directory from the air instead of
	// using a pre-cached copy; the bootstrap is charged to tuning time and
	// latency. Meaningless at K=1 (no directory travels).
	Cold bool
}

// Rx tunes a radio in at global tick startTick.
func (a *Air) Rx(startTick int, opts RxOptions) (*Rx, error) {
	if opts.Channel < 0 || opts.Channel >= a.plan.K() {
		return nil, fmt.Errorf("multichannel: channel %d outside [0,%d)", opts.Channel, a.plan.K())
	}
	if opts.Cold && a.plan.K() == 1 {
		opts.Cold = false
	}
	dir := a.plan.Dir
	if opts.Cold {
		dir = nil
	}
	return NewRx(&airSource{air: a}, dir, startTick, opts.Channel), nil
}

// Tuner tunes a radio in and wraps it in a broadcast.Tuner positioned at
// the radio's logical start — the one-call path mirroring
// broadcast.NewTuner.
func (a *Air) Tuner(startTick int, opts RxOptions) (*broadcast.Tuner, *Rx, error) {
	rx, err := a.Rx(startTick, opts)
	if err != nil {
		return nil, nil, err
	}
	return broadcast.NewFeedTuner(rx, rx.StartPos()), rx, nil
}

// airSource replays the plan's channel cycles deterministically.
type airSource struct {
	air *Air
}

func (s *airSource) K() int { return s.air.plan.K() }

func (s *airSource) Receive(channel, tick int) (packet.Packet, bool) {
	cyc := s.air.plan.Channels[channel]
	p := cyc.Packets[tick%cyc.Len()]
	if broadcast.Lost(chanSeed(s.air.seed, channel), tick, s.air.loss) {
		return packet.Packet{Kind: p.Kind}, false
	}
	return p, true
}

// Span serves a slice of the channel's cycle from tick up to the cycle's
// end, with the channel's loss pattern drawn per tick.
//
//air:noalloc
func (s *airSource) Span(channel, tick, n int) ([]packet.Packet, uint64) {
	cyc := s.air.plan.Channels[channel]
	l := cyc.Len()
	i := tick % l
	k := min(n, broadcast.MaxSpan, l-i)
	return cyc.Packets[i : i+k], broadcast.LostMask(chanSeed(s.air.seed, channel), tick, k, s.air.loss)
}

func (s *airSource) Hop(from, to, tick int) {}

func (s *airSource) Prefetch(channel, fromTick, n int) {}

func (s *airSource) Close() {}
