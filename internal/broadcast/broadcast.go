// Package broadcast implements the wireless broadcast substrate: cycle
// assembly with section bookkeeping, the (1,m) interleaving rule of [6],
// a deterministic lossy channel, and the client tuner that accounts tuning
// time, access latency, and sleep/wake behaviour (paper Sections 2.2, 3.1
// and 6.2).
package broadcast

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/packet"
)

// Section describes a contiguous packet range in a cycle: one index copy,
// one region's data segment, one auxiliary block, and so on. Sections are
// server-side bookkeeping (and test scaffolding); clients learn positions
// only from packet headers and index contents.
type Section struct {
	Kind   packet.Kind
	Region int // region the section belongs to, or -1
	Label  string
	Start  int // first packet position in the cycle
	N      int // number of packets
}

// Cycle is one broadcast cycle: the fixed packet sequence a server repeats
// forever.
type Cycle struct {
	Packets  []packet.Packet
	Sections []Section
	// Version is the cycle's broadcast version. Static cycles (the paper's
	// model, and everything a scheme server assembles directly) stay at
	// zero and are never stamped; a dynamic deployment (internal/update)
	// bumps it on every rebuild via SetVersion.
	Version uint32
}

// Len returns the cycle length in packets.
func (c *Cycle) Len() int { return len(c.Packets) }

// SetVersion stamps v on the cycle and on every packet's header, so any
// client receiving any packet learns which cycle version is on the air.
// Payload bytes are untouched: versioning is header-only, which is what
// keeps the empty-update-stream path bit-identical to a static broadcast.
func (c *Cycle) SetVersion(v uint32) {
	c.Version = v
	for i := range c.Packets {
		c.Packets[i].Version = v
	}
}

// WithTrailer returns a new cycle consisting of c's sections verbatim
// followed by pkts as one trailing section, with every next-index pointer
// re-derived for the longer cycle. c is not modified; packet structs are
// copied but payload bytes are shared (they are immutable once sealed).
// The trailer rides at the end, so every content section keeps its start
// position — region offset tables encoded into c's index packets stay
// valid on the trailered cycle.
func WithTrailer(c *Cycle, kind packet.Kind, region int, label string, pkts []packet.Packet) (*Cycle, error) {
	secs := append([]Section(nil), c.Sections...)
	sort.Slice(secs, func(i, j int) bool { return secs[i].Start < secs[j].Start })
	pos := 0
	for _, s := range secs {
		if s.Start != pos {
			return nil, fmt.Errorf("broadcast: sections do not tile the cycle at packet %d", pos)
		}
		pos += s.N
	}
	if pos != c.Len() {
		return nil, fmt.Errorf("broadcast: sections cover %d of %d packets", pos, c.Len())
	}
	asm := NewAssembler()
	for _, s := range secs {
		asm.Append(s.Kind, s.Region, s.Label, c.Packets[s.Start:s.Start+s.N])
	}
	asm.Append(kind, region, label, pkts)
	out := asm.Finish()
	out.Version = c.Version
	return out, nil
}

// Assembler builds a Cycle section by section.
type Assembler struct {
	c Cycle
}

// NewAssembler returns an empty Assembler.
func NewAssembler() *Assembler { return &Assembler{} }

// Append adds pkts as a section and returns its start position.
func (a *Assembler) Append(kind packet.Kind, region int, label string, pkts []packet.Packet) int {
	start := len(a.c.Packets)
	a.c.Packets = append(a.c.Packets, pkts...)
	a.c.Sections = append(a.c.Sections, Section{
		Kind: kind, Region: region, Label: label, Start: start, N: len(pkts),
	})
	return start
}

// Finish fixes up every packet's next-index pointer (the paper requires the
// pointer on all packets) and returns the cycle. The pointer names the start
// of the next index section *strictly after* the packet, so a client that
// just listened to any packet can sleep forward to a whole index copy (or,
// for NR, a whole local index). With no index sections the pointers stay
// zero.
func (a *Assembler) Finish() *Cycle {
	c := &a.c
	n := len(c.Packets)
	if n == 0 {
		return c
	}
	if starts := indexStarts(c.Sections); len(starts) > 0 {
		ptr := pointers{starts: starts, n: n}
		for i := range c.Packets {
			c.Packets[i].NextIndex = ptr.at(i)
		}
	}
	return c
}

// indexStarts returns the start positions of the KindIndex sections (the
// index copy boundaries), in section order.
func indexStarts(secs []Section) []int {
	var starts []int
	for _, s := range secs {
		if s.Kind == packet.KindIndex {
			starts = append(starts, s.Start)
		}
	}
	return starts
}

// pointers derives next-index pointers for the positions of a cycle of n
// packets whose index sections start at starts (ascending), visited in
// ascending order: the distance to the first start strictly after the
// position, wrapping to the first copy of the next cycle; zero when the
// cycle has no index sections.
type pointers struct {
	starts []int
	n      int
	j      int // starts at or before the last position visited
}

func (p *pointers) at(i int) uint32 {
	if len(p.starts) == 0 {
		return 0
	}
	for p.j < len(p.starts) && p.starts[p.j] <= i {
		p.j++
	}
	if p.j < len(p.starts) {
		return uint32(p.starts[p.j] - i)
	}
	return uint32(p.starts[0] + p.n - i)
}

// OptimalM computes the (1,m) replication factor of [6]:
// m = sqrt(dataPackets / indexPackets), at least 1.
func OptimalM(dataPackets, indexPackets int) int {
	if indexPackets <= 0 || dataPackets <= 0 {
		return 1
	}
	m := int(math.Round(math.Sqrt(float64(dataPackets) / float64(indexPackets))))
	if m < 1 {
		m = 1
	}
	return m
}

// Feed is anything a Tuner can receive packets from: a replayed Channel or
// a live station subscription (internal/station). At returns the packet
// transmitted at absolute position abs and whether it arrived intact; Len is
// the cycle length in packets. At is only ever called with non-decreasing
// positions — clients cannot rewind a broadcast.
//
// A packet's payload is valid until the next At (or Span) on the same
// feed: a wire receiver serves it as a view of its datagram buffer. A client that keeps
// a payload across receptions copies it. The in-process feeds serve
// immutable cycle slices, so they meet a stronger rule.
type Feed interface {
	Len() int
	At(abs int) (packet.Packet, bool)
}

// Clocked is a Feed whose delivery time is not the logical position: a
// multi-channel radio (internal/multichannel) serves the single logical
// cycle address space while the air advances on a global clock shared by
// all channels. The Tuner accounts access latency in global clock ticks
// when its feed is Clocked, and in logical positions otherwise — on a
// single channel the two coincide.
type Clocked interface {
	Feed
	// Clock returns the next global tick: every tick so far has either been
	// received or slept over.
	Clock() int
	// TuneIn returns the global tick the feed tuned in at (latency zero
	// point). For a cold radio this precedes the directory bootstrap.
	TuneIn() int
}

// Hopping is a Clocked feed that can estimate, without receiving anything,
// how long the radio would wait for a logical position to next cross the
// air — packets at different logical positions live on different channels
// with different cycle lengths, so logical distance is not arrival order.
// Tuner.Fetch and Tuner.Recover order their receptions by the tuner's
// Arrival, which delegates here and falls back to logical distance on
// plain feeds.
type Hopping interface {
	Clocked
	// WaitFor returns the global ticks from now until the packet at logical
	// position abs next crosses the air (0 = it is on the air now).
	//
	// Contract: for a fixed position, Clock()+WaitFor(abs) never decreases
	// as the radio moves forward (receives or sleeps), abs advancing with
	// the tuner to the position's next occurrence. Fetch and Recover keep
	// outstanding positions keyed by an arrival computed earlier and rely
	// on it being a lower bound. multichannel.Rx meets it: its tick only
	// grows, a hop's extra tick applies only to channels the radio is not
	// on, and after a hop the tick is past the old base.
	WaitFor(abs int) int
	// Overhead returns packets the feed itself received on the listener's
	// behalf (directory bootstrap); the Tuner adds it to tuning time.
	Overhead() int
}

// Refreshable is a Feed that holds cached cycle-structure state — a
// channel-hopping radio's directory — which a versioned cycle swap
// (internal/update) can invalidate underneath it. Stale reports that the
// feed has observed air from a cycle version its cached structure does not
// describe: positions it serves may no longer correspond to the content the
// client expects, even if every packet it returns is from a single (new)
// version. A client seeing a stale feed discards the attempt and re-enters
// on a fresh feed; there is no in-place refresh, because the radio's cached
// map is wrong in ways it cannot locally repair.
type Refreshable interface {
	Feed
	Stale() bool
}

// Prefetcher is a Feed that can exploit advance notice of a contiguous
// listen: a live subscription uses it to let the station run ahead into the
// subscriber's buffer instead of handing the clock back and forth once per
// packet. Purely an optimization hint — the packets received, their loss
// pattern and all metrics are identical with and without it. A feed that is
// also a Spanner gets no hint from the tuner: the span is the call.
type Prefetcher interface {
	Feed
	// Prefetch declares that the listener will receive the n packets at
	// absolute logical positions [abs, abs+n) back to back.
	Prefetch(abs, n int)
}

// MaxSpan bounds the positions one Span serves: a view's loss pattern
// travels as one 64-bit mask.
const MaxSpan = 64

// Spanner is a Feed that serves a run of consecutive positions in one call
// (Tuner.ListenSpan): what n At calls would return, for the cost of one.
// Span(abs, n) receives positions [abs, abs+k) for some 1 <= k <=
// min(n, MaxSpan) — the feed cuts the run where serving more would cost a
// wait, a retune or a change of cycle — and returns them as a view: pkts[i]
// is the packet at abs+i, and bit i of lost marks it lost, in which case
// only pkts[i].Kind is meaningful (At would serve Packet{Kind} alone). The
// view, payloads included, is valid until the next Span or At on the feed,
// like an At payload; Len is constant across the positions of one view; and
// on a Clocked feed the view covers consecutive ticks, so Clock after a
// Span is the tick after its last position. A Span changes the feed's state
// (clock, counters, staleness) exactly as the k At calls would, and never
// receives a position past abs+k-1.
type Spanner interface {
	Feed
	Span(abs, n int) (pkts []packet.Packet, lost uint64)
}

// Channel is a broadcast channel repeating a cycle forever, with optional
// deterministic Bernoulli packet loss. Whether the transmission at absolute
// position p is lost depends only on (seed, p): every listener experiences
// the same air, and experiments are reproducible.
type Channel struct {
	cycle *Cycle
	loss  float64
	seed  uint64
}

// NewChannel returns a channel for the cycle with the given loss rate in
// [0, 1) and seed.
func NewChannel(c *Cycle, lossRate float64, seed int64) (*Channel, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("broadcast: empty cycle")
	}
	if lossRate < 0 || lossRate >= 1 {
		return nil, fmt.Errorf("broadcast: loss rate %v outside [0,1)", lossRate)
	}
	return &Channel{cycle: c, loss: lossRate, seed: uint64(seed)}, nil
}

// Cycle returns the broadcast cycle.
func (ch *Channel) Cycle() *Cycle { return ch.cycle }

// Len returns the cycle length in packets.
func (ch *Channel) Len() int { return ch.cycle.Len() }

// At returns the packet transmitted at absolute position abs and whether it
// was received intact. A lost packet keeps its Kind (the radio knows what
// slot it was tuned to) but carries no payload.
func (ch *Channel) At(abs int) (packet.Packet, bool) {
	p := ch.cycle.Packets[abs%ch.cycle.Len()]
	if Lost(ch.seed, abs, ch.loss) {
		return packet.Packet{Kind: p.Kind}, false
	}
	return p, true
}

// Span implements Spanner: a slice of the cycle from abs up to the cycle's
// end, with the loss pattern drawn per position.
//
//air:noalloc
func (ch *Channel) Span(abs, n int) ([]packet.Packet, uint64) {
	l := ch.cycle.Len()
	i := abs % l
	k := min(n, MaxSpan, l-i)
	return ch.cycle.Packets[i : i+k], LostMask(ch.seed, abs, k, ch.loss)
}

// SplitMix64 is the finalizer the whole repo draws determinism from: loss
// patterns here, fleet client seeds, wire dial jitter, chaos fault streams.
// A caller mixes its words into z (seed + n*0x9E3779B97F4A7C15 by
// convention) and gets 64 well-scrambled bits back.
func SplitMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Lost reports whether the transmission at absolute position abs is lost for
// a listener with the given loss seed and rate. It hashes (seed, abs) with
// SplitMix64 into a uniform [0,1) draw, so the loss pattern depends only on
// (seed, abs): a live station subscription (internal/station) and an offline
// Channel with the same seed and rate observe the exact same air.
func Lost(seed uint64, abs int, loss float64) bool {
	if loss <= 0 {
		return false
	}
	z := SplitMix64(seed + uint64(abs)*0x9E3779B97F4A7C15)
	return float64(z>>11)/float64(1<<53) < loss
}

// LostMask draws Lost for the k <= MaxSpan positions from abs at once: bit
// i is set when abs+i is lost. It is the loss pattern of a Span view.
func LostMask(seed uint64, abs, k int, loss float64) uint64 {
	if loss <= 0 {
		return 0
	}
	var m uint64
	for i := 0; i < k; i++ {
		if Lost(seed, abs+i, loss) {
			m |= 1 << i
		}
	}
	return m
}
