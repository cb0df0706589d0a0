package update

import (
	"fmt"
	"math/rand" //air:nondeterministic "caller passes a seeded *rand.Rand; the draw sequence is part of the replay fixture"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/packet"
)

// Replay is the offline versioned air: a deterministic replay of a station
// that swapped cycles at given absolute positions, with the same splitmix64
// Bernoulli loss as broadcast.Channel. It implements broadcast.Feed, so an
// unchanged Tuner — and therefore every scheme client — runs on it; the
// deterministic churn tests and the update fuzzer drive their mid-swap
// scenarios through it instead of standing up a live station.
type Replay struct {
	loss   float64
	seed   uint64
	epochs []replayEpoch // ascending swap positions; epochs[0].at == 0
	cursor int           // highest position served so far
}

type replayEpoch struct {
	at    int // absolute position the cycle went on the air
	cycle *broadcast.Cycle
}

// NewReplay returns a replay serving first from position 0.
func NewReplay(first *broadcast.Cycle, lossRate float64, seed int64) (*Replay, error) {
	if first.Len() == 0 {
		return nil, fmt.Errorf("update: empty cycle")
	}
	if lossRate < 0 || lossRate >= 1 {
		return nil, fmt.Errorf("update: loss rate %v outside [0,1)", lossRate)
	}
	return &Replay{
		loss:   lossRate,
		seed:   uint64(seed),
		epochs: []replayEpoch{{at: 0, cycle: first}},
	}, nil
}

// SwapAt puts c on the air from absolute position pos. Like the live
// station's boundary-aligned protocol, pos must complete the outgoing
// cycle: a multiple of its length, at or after the previous swap. Positions
// already served cannot be rewritten.
func (r *Replay) SwapAt(pos int, c *broadcast.Cycle) error {
	if c.Len() == 0 {
		return fmt.Errorf("update: empty cycle")
	}
	last := r.epochs[len(r.epochs)-1]
	if pos < last.at || pos%last.cycle.Len() != 0 {
		return fmt.Errorf("update: swap at %d does not complete the outgoing cycle (origin %d, len %d)",
			pos, last.at, last.cycle.Len())
	}
	if pos <= r.cursor {
		return fmt.Errorf("update: swap at %d but position %d already served", pos, r.cursor)
	}
	r.epochs = append(r.epochs, replayEpoch{at: pos, cycle: c})
	return nil
}

// epochOf returns the epoch on the air at absolute position abs.
func (r *Replay) epochOf(abs int) replayEpoch {
	e := r.epochs[0]
	for _, cand := range r.epochs[1:] {
		if cand.at > abs {
			break
		}
		e = cand
	}
	return e
}

// Len implements broadcast.Feed: the cycle length at the replay's current
// position (it changes across swaps, exactly like a live subscription's).
func (r *Replay) Len() int { return r.epochOf(r.cursor).cycle.Len() }

// At implements broadcast.Feed.
func (r *Replay) At(abs int) (packet.Packet, bool) {
	if abs > r.cursor {
		r.cursor = abs
	}
	e := r.epochOf(abs)
	p := e.cycle.Packets[abs%e.cycle.Len()]
	if broadcast.Lost(r.seed, abs, r.loss) {
		return packet.Packet{Kind: p.Kind}, false
	}
	return p, true
}

// Span implements broadcast.Spanner: a slice of the cycle on the air at
// abs, up to its end. Every swap completes the outgoing cycle (SwapAt), so
// the cut at the cycle's end is also the cut at the next swap: Len holds
// across the view.
//
//air:noalloc
func (r *Replay) Span(abs, n int) ([]packet.Packet, uint64) {
	e := r.epochOf(abs)
	l := e.cycle.Len()
	i := abs % l
	k := min(n, broadcast.MaxSpan, l-i)
	r.cursor = max(r.cursor, abs+k-1)
	return e.cycle.Packets[i : i+k], broadcast.LostMask(r.seed, abs, k, r.loss)
}

// Mode selects the weight-change profile of RandomUpdates.
type Mode int

// Update modes: the fuzz corpus covers each.
const (
	ModeMixed    Mode = iota // scale by [0.5, 2)
	ModeIncrease             // scale by (1, 2]
	ModeDecrease             // scale by [0.5, 1)
	ModeNoop                 // restate the current weight
)

// RandomUpdates draws n uniform random arcs of g and re-weights them per
// the mode: the synthetic traffic feed behind the churn scenario and the
// update fuzzer. Updates stay within 2x of the original weight, so the
// float32 wire precision budget holds like it does for the base network.
func RandomUpdates(g *graph.Graph, rng *rand.Rand, n int, mode Mode) []graph.WeightUpdate {
	ups := make([]graph.WeightUpdate, 0, n)
	for i := 0; i < n; i++ {
		from, to, w := g.ArcAt(rng.Intn(g.NumArcs()))
		switch mode {
		case ModeIncrease:
			w *= 1 + rng.Float64()
		case ModeDecrease:
			w *= 0.5 + 0.5*rng.Float64()
		case ModeNoop:
			// keep w
		default:
			w *= 0.5 + 1.5*rng.Float64()
		}
		ups = append(ups, graph.WeightUpdate{From: from, To: to, Weight: w})
	}
	return ups
}
