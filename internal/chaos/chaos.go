// Package chaos is the repo's fault-injection subsystem: a netem-style UDP
// fault proxy (proxy.go) and an in-process hook for the wire transport,
// both driven by one deterministic seeded fault plan. Where the broadcast
// simulator draws i.i.d. Bernoulli loss per position (broadcast.Lost), a
// real wire fails in correlated ways: loss arrives in bursts (a fading
// radio channel, a congested queue), datagrams are reordered and
// duplicated by multipath routing, bits flip, and whole windows black out
// when a broadcaster dies or a route flaps. This package injects exactly
// those shapes — Gilbert-Elliott two-state bursty loss, reordering,
// duplication, corruption, blackhole windows — with the same splitmix64
// draw discipline as the simulator, so every chaos run is replayable: the
// fault verdict for the n-th datagram of a stream is a pure function of
// (seed, n), never of wall-clock timing.
//
// The resilience machinery this exercises lives elsewhere: wire.Receiver
// re-dials a dead broadcaster with capped jittered backoff, deploy.Session
// enforces per-query tuning/deadline budgets with explicit degraded-answer
// reporting, and wire.Broadcaster sheds load with typed refusals. The
// chaos soak (soak_test.go) drives all of it at once: a fleet rides
// through bursty loss and a broadcaster kill+restart with zero hung
// sessions and every completed answer still Dijkstra-verified.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/obs"
)

// Package-level instruments (DESIGN.md §12). One set per process: chaos
// runs want "how much damage did the run inject" totals, not per-flow
// cardinality.
var (
	obsDropped = obs.GetCounter("air_chaos_dropped_total",
		"datagrams dropped by chaos injection (Gilbert-Elliott loss)")
	obsBlackholed = obs.GetCounter("air_chaos_blackholed_total",
		"datagrams swallowed by a chaos blackhole window")
	obsCorrupted = obs.GetCounter("air_chaos_corrupted_total",
		"datagrams bit-flipped by chaos injection")
	obsDuplicated = obs.GetCounter("air_chaos_duplicated_total",
		"datagrams duplicated by chaos injection")
	obsReordered = obs.GetCounter("air_chaos_reordered_total",
		"datagrams held back one slot by chaos injection (reordering)")
)

// Draw-stream constants: each fault family reads its own uncorrelated
// [0,1) sequence over the shared (seed, n) space.
const (
	streamTransition uint64 = 1 + iota
	streamLoss
	streamCorrupt
	streamCorruptBit
	streamDuplicate
	streamReorder
)

// draw returns the deterministic uniform [0,1) draw for datagram n of the
// given fault stream.
func draw(seed uint64, n uint64, stream uint64) float64 {
	z := broadcast.SplitMix64(seed + n*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03)
	return float64(z>>11) / float64(1<<53)
}

// DeriveSeed folds an index into a seed with the splitmix64 finalizer, the
// same discipline fleet.clientSeed uses: nearby indexes land in unrelated
// parts of the draw space, so per-flow fault patterns never alias.
func DeriveSeed(seed int64, index int) int64 {
	return int64(broadcast.SplitMix64(uint64(seed) + uint64(index)*0x9E3779B97F4A7C15))
}

// Plan is one direction's deterministic fault schedule. The zero value
// injects nothing (a transparent wire). All probabilities are per datagram
// in [0,1).
type Plan struct {
	// Seed anchors every draw; the same plan replays the same fault
	// sequence for the same datagram stream.
	Seed int64

	// Gilbert-Elliott two-state bursty loss: the channel wanders between a
	// good and a bad state with per-datagram transition probabilities
	// PGoodBad and PBadGood, dropping each datagram with LossGood or
	// LossBad. Mean burst length is 1/PBadGood datagrams; PBadGood == 0
	// with PGoodBad > 0 degenerates to a one-way trap (the channel never
	// recovers), which is allowed but rarely what a test wants.
	PGoodBad, PBadGood float64
	LossGood, LossBad  float64

	// Corrupt flips one deterministic bit of the datagram (which the frame
	// CRC must catch downstream).
	Corrupt float64

	// Duplicate delivers the datagram twice back to back.
	Duplicate float64

	// Reorder holds the datagram back one slot: it is delivered after the
	// next datagram instead of before it (a two-element swap, the common
	// mild reordering of multipath routes).
	Reorder float64

	// BlackholeEvery/BlackholeLen cut periodic total outages into the
	// stream: of every BlackholeEvery datagrams, the first BlackholeLen
	// are swallowed whole. 0 disables. This is the schedulable stand-in
	// for a route flap or a mid-run broadcaster freeze.
	BlackholeEvery, BlackholeLen int
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.PGoodBad > 0 || p.LossGood > 0 || p.LossBad > 0 ||
		p.Corrupt > 0 || p.Duplicate > 0 || p.Reorder > 0 ||
		(p.BlackholeEvery > 0 && p.BlackholeLen > 0)
}

// Validate rejects out-of-range probabilities and a blackhole window that
// swallows the whole period (a misconfigured plan should fail loudly, not
// silence a stream forever).
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"PGoodBad", p.PGoodBad}, {"PBadGood", p.PBadGood},
		{"LossGood", p.LossGood}, {"LossBad", p.LossBad},
		{"Corrupt", p.Corrupt}, {"Duplicate", p.Duplicate}, {"Reorder", p.Reorder},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("chaos: %s %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.BlackholeEvery < 0 || p.BlackholeLen < 0 {
		return fmt.Errorf("chaos: negative blackhole window")
	}
	if p.BlackholeEvery > 0 && p.BlackholeLen >= p.BlackholeEvery {
		return fmt.Errorf("chaos: blackhole of %d datagrams covers the whole %d-datagram period",
			p.BlackholeLen, p.BlackholeEvery)
	}
	return nil
}

// Stats counts the faults an injector (or proxy direction) actually
// applied.
type Stats struct {
	Datagrams  uint64 // datagrams offered to the injector
	Dropped    uint64 // Gilbert-Elliott losses
	Blackholed uint64 // swallowed by a blackhole window
	Corrupted  uint64
	Duplicated uint64
	Reordered  uint64
}

// Add folds another stats snapshot in.
func (s *Stats) Add(o Stats) {
	s.Datagrams += o.Datagrams
	s.Dropped += o.Dropped
	s.Blackholed += o.Blackholed
	s.Corrupted += o.Corrupted
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
}

// String renders the damage summary one line at a time-honored density.
func (s Stats) String() string {
	return fmt.Sprintf("%d datagrams: %d dropped, %d blackholed, %d corrupted, %d duplicated, %d reordered",
		s.Datagrams, s.Dropped, s.Blackholed, s.Corrupted, s.Duplicated, s.Reordered)
}

// Injector applies one Plan to one datagram stream. It is single-goroutine
// (like the receiver side of the wire); wrap it in a lock to share, as
// WireHook does. Fault verdicts depend only on (plan, datagram index) —
// the Gilbert-Elliott state itself evolves from deterministic draws — so
// two injectors with equal plans fed equal-length streams emit identical
// fault sequences.
type Injector struct {
	plan Plan
	seed uint64
	n    uint64 // next datagram index
	bad  bool   // Gilbert-Elliott state
	held []byte // datagram held back by a reorder
	st   Stats
}

// NewInjector returns an injector for the plan. The plan must Validate.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: p, seed: uint64(p.Seed)}, nil
}

// Stats returns the damage applied so far.
func (in *Injector) Stats() Stats { return in.st }

// verdict is one datagram's fault decision.
type verdict struct {
	drop      bool // Gilbert-Elliott loss
	blackhole bool
	corrupt   bool
	bit       uint64 // which bit to flip when corrupting
	duplicate bool
	reorder   bool
}

// step advances the deterministic fault machine one datagram and returns
// the verdict for datagram n.
func (in *Injector) step() verdict {
	p, n := in.plan, in.n
	in.n++
	var v verdict
	// The Gilbert-Elliott state evolves on every datagram, including ones a
	// blackhole swallows: the channel's weather does not pause for an
	// outage, and keeping the transition draws position-indexed is what
	// makes the sequence replayable.
	if in.bad {
		if p.PBadGood > 0 && draw(in.seed, n, streamTransition) < p.PBadGood {
			in.bad = false
		}
	} else {
		if p.PGoodBad > 0 && draw(in.seed, n, streamTransition) < p.PGoodBad {
			in.bad = true
		}
	}
	if p.BlackholeEvery > 0 && int(n%uint64(p.BlackholeEvery)) < p.BlackholeLen {
		v.blackhole = true
		return v
	}
	loss := p.LossGood
	if in.bad {
		loss = p.LossBad
	}
	if loss > 0 && draw(in.seed, n, streamLoss) < loss {
		v.drop = true
		return v
	}
	if p.Corrupt > 0 && draw(in.seed, n, streamCorrupt) < p.Corrupt {
		v.corrupt = true
		v.bit = uint64(draw(in.seed, n, streamCorruptBit) * float64(1<<30))
	}
	if p.Duplicate > 0 && draw(in.seed, n, streamDuplicate) < p.Duplicate {
		v.duplicate = true
	}
	if p.Reorder > 0 && draw(in.seed, n, streamReorder) < p.Reorder {
		v.reorder = true
	}
	return v
}

// Apply consumes one datagram and returns the datagrams to deliver now, in
// order: zero (dropped, blackholed, or held back for reordering), one, or
// more (a duplicate, or a previously held datagram riding behind this
// one). The returned slices are copies; the caller may reuse b.
func (in *Injector) Apply(b []byte) [][]byte {
	v := in.step()
	in.st.Datagrams++
	switch {
	case v.blackhole:
		in.st.Blackholed++
		obsBlackholed.Inc()
		return nil
	case v.drop:
		in.st.Dropped++
		obsDropped.Inc()
		return nil
	}
	out := append([]byte(nil), b...)
	if v.corrupt && len(out) > 0 {
		bit := v.bit % uint64(len(out)*8)
		out[bit/8] ^= 1 << (bit % 8)
		in.st.Corrupted++
		obsCorrupted.Inc()
	}
	var deliver [][]byte
	if v.reorder && in.held == nil {
		// Hold this datagram back; it rides behind the next one.
		in.held = out
		in.st.Reordered++
		obsReordered.Inc()
		return nil
	}
	deliver = append(deliver, out)
	if v.duplicate {
		deliver = append(deliver, append([]byte(nil), out...))
		in.st.Duplicated++
		obsDuplicated.Inc()
	}
	if in.held != nil {
		deliver = append(deliver, in.held)
		in.held = nil
	}
	return deliver
}

// WireHook adapts the injector to wire.BroadcasterOptions.Corrupt — the
// in-process fault hook, for chaos tests that want bursty loss and
// corruption without a UDP proxy in the path. The hook's signature can
// drop (return nil) or mutate a frame but not duplicate or reorder, so
// those plan fields are ignored here; use a Proxy for the full set. The
// hook sees frames before the pump packs them into datagrams, so here the
// plan's "datagram" is one frame — one position lost per drop — where a
// Proxy faults whole datagrams, up to nine positions at a blow. The
// returned func is safe for concurrent use (broadcaster pumps are one
// goroutine per remote); the lock serializes the deterministic state.
func (in *Injector) WireHook() func(pos uint64, frame []byte) []byte {
	var mu sync.Mutex
	return func(pos uint64, frame []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		v := in.step()
		in.st.Datagrams++
		switch {
		case v.blackhole:
			in.st.Blackholed++
			obsBlackholed.Inc()
			return nil
		case v.drop:
			in.st.Dropped++
			obsDropped.Inc()
			return nil
		}
		if v.corrupt && len(frame) > 0 {
			bit := v.bit % uint64(len(frame)*8)
			frame[bit/8] ^= 1 << (bit % 8)
			in.st.Corrupted++
			obsCorrupted.Inc()
		}
		return frame
	}
}

// Schedule yields deterministic event times for process-level faults — the
// broadcaster kill/restart drill of the chaos soak. Event i fires at the
// sum of i+1 jittered intervals drawn uniformly from [Min, Max] with the
// same splitmix64 discipline as everything else, so a kill schedule
// replays exactly for a given seed.
type Schedule struct {
	Seed     int64
	Min, Max time.Duration
}

// At returns the offset of the i-th event (0-based) from the schedule
// start.
func (s Schedule) At(i int) time.Duration {
	if s.Max < s.Min {
		s.Max = s.Min
	}
	var total time.Duration
	for k := 0; k <= i; k++ {
		u := draw(uint64(s.Seed), uint64(k), streamTransition)
		total += s.Min + time.Duration(u*float64(s.Max-s.Min))
	}
	return total
}
