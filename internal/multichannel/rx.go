package multichannel

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/packet"
)

// Package-level instruments (DESIGN.md §10). The channel label is bounded
// by the deployment's shard count K — a small closed set fixed at build.
var (
	obsHops = obs.GetCounter("air_channel_hops_total",
		"channel retunes across all hopping radios")
	obsDirReads = obs.GetCounter("air_dir_bootstraps_total",
		"cold directory bootstraps completed")
	obsDirPackets = obs.GetCounter("air_dir_bootstrap_packets_total",
		"packets spent scanning for and assembling channel directories")
)

// obsChanPackets holds each channel's air_channel_packets_total series,
// resolved on its first flush (channelPackets): a series appears only once
// a radio has received on its channel, and a flush costs no registry
// lookup.
var obsChanPackets [MaxChannels]atomic.Pointer[obs.Counter]

// channelPackets returns channel c's packet counter.
func channelPackets(c int) *obs.Counter {
	if p := obsChanPackets[c].Load(); p != nil {
		return p
	}
	p := obs.GetCounter("air_channel_packets_total",
		"packets received per shard channel (bootstrap included)",
		"channel", strconv.Itoa(c))
	obsChanPackets[c].Store(p)
	return p
}

// Source is the physical layer under an Rx: K channels advancing on one
// global clock. Receive blocks (live) or computes (replay) the transmission
// on `channel` at global tick `tick`; ticks passed to Receive are strictly
// increasing across calls. Hop tells the source the radio retunes from one
// channel to another before the next Receive (live sources park the old
// subscription so the shared clock is never held by a channel nobody
// listens to). Prefetch declares an upcoming contiguous reception of n
// ticks from fromTick on one channel — live sources let the station run
// ahead into the subscription buffer; replay sources ignore it. Span is
// Receive for a run of consecutive ticks on one channel, served as a view
// under broadcast.Spanner's contract (1 to min(n, broadcast.MaxSpan)
// ticks, valid until the next Span or Receive).
type Source interface {
	K() int
	Receive(channel, tick int) (packet.Packet, bool)
	Span(channel, tick, n int) ([]packet.Packet, uint64)
	Hop(from, to, tick int)
	Prefetch(channel, fromTick, n int)
	Close()
}

// Rx is a channel-hopping radio: it serves the logical single-cycle address
// space of broadcast.Feed while receiving from whichever channel carries
// each logical position, on the global clock. It implements
// broadcast.Clocked (latency runs on ticks) and broadcast.Hopping (arrival
// estimates, bootstrap overhead), so an unchanged broadcast.Tuner — and
// therefore every scheme client — runs on top of it.
//
// A warm Rx is constructed with the directory pre-cached (the table is
// static per cycle, so a commuter device holds it between queries). A cold
// Rx bootstraps from the air: it scans its start channel until a directory
// packet arrives, completes the copy (patching losses from the channel's
// other copies), and only then serves the feed; the scan is charged to
// tuning (Overhead) and runs on the same clock, so latency covers it.
type Rx struct {
	src Source
	dir *Directory // nil until bootstrapped

	t0       int // tune-in tick
	tick     int // next global tick
	cur      int // channel currently tuned
	startPos int // logical position of the content at tune-in

	// stale flips when an intact packet carries a cycle version other than
	// the one the directory describes: a versioned cycle swap invalidated
	// the radio's cached map, so the positions it serves may no longer be
	// the content the client expects (broadcast.Refreshable). The radio
	// cannot repair itself — the client re-enters on a fresh Rx.
	stale bool

	perChannel []int
	hops       int
	overhead   int

	// trace, when set, records this radio's span events (flight recorder).
	trace *obs.Trace
}

// SetTrace attaches a flight recorder; hops and directory bootstraps record
// span events on it. Nil detaches.
func (r *Rx) SetTrace(tr *obs.Trace) { r.trace = tr }

// NewRx returns a radio over src tuned to startChannel at global tick
// startTick. A nil dir selects a cold bootstrap on first use.
func NewRx(src Source, dir *Directory, startTick, startChannel int) *Rx {
	r := &Rx{
		src:        src,
		dir:        dir,
		t0:         startTick,
		tick:       startTick,
		cur:        startChannel,
		perChannel: make([]int, src.K()),
	}
	if dir != nil {
		r.startPos = startPos(dir, r.cur, r.tick)
	}
	return r
}

// startPos computes the logical tune-in position: the absolute tick itself
// on the identity plan (logical space == tick space, like a plain channel),
// the content under the channel's current slot otherwise.
func startPos(dir *Directory, channel, tick int) int {
	if dir.Identity() {
		return tick
	}
	return dir.StartPos(channel, tick%dir.ChanLens[channel])
}

// ensureDir bootstraps a cold radio; on a warm one it is free. Like every
// loss-recovery loop in this codebase, the bootstrap retries until it
// succeeds — loss rates are < 1, so it terminates with probability one —
// and a channel that structurally carries no directory at all (impossible
// for a Build-produced plan) is a programming error and panics rather than
// leaving clients receiving nothing forever.
func (r *Rx) ensureDir() {
	if r.dir != nil {
		return
	}
	acc := &DirAccum{}
	listen := func(tick int) {
		p, ok := r.src.Receive(r.cur, tick)
		r.perChannel[r.cur]++
		r.overhead++
		r.tick = tick + 1
		acc.Process(p, ok)
	}
	// Phase 1: scan the start channel until any directory packet arrives
	// intact; its meta names the copy shape and this channel's copy slots.
	// A cycle swap mid-bootstrap resets the accumulator (it must not mix
	// copies of two versions), which sends the radio back to scanning.
	const scanCap = 1 << 22
	for !acc.Complete() {
		for !acc.haveMeta {
			if r.overhead > scanCap {
				panic(fmt.Sprintf("multichannel: no directory found on channel %d after %d packets", r.cur, r.overhead))
			}
			listen(r.tick)
		}
		chanLen := acc.Meta.ChanLen
		if chanLen <= 0 || len(acc.Meta.CopySlots) == 0 {
			panic(fmt.Sprintf("multichannel: malformed directory meta %+v", acc.Meta))
		}
		// Phase 2: fetch the still-missing copy packets by slot — the meta
		// names this channel's copy starts and cycle length, so each missing
		// seq is patched from whichever upcoming copy carries it first, until
		// the table is complete (or a swap resets the accumulator).
		ver := acc.Meta.Version
		for acc.haveMeta && acc.Meta.Version == ver && !acc.Complete() {
			for _, seq := range acc.MissingSeqs() {
				best := -1
				for _, s := range acc.Meta.CopySlots {
					t := r.tick + mod(s+seq-r.tick, chanLen)
					if best < 0 || t < best {
						best = t
					}
				}
				listen(best)
				if !acc.haveMeta || acc.Meta.Version != ver {
					break
				}
			}
		}
	}
	d, err := acc.Directory()
	if err != nil {
		panic(fmt.Sprintf("multichannel: %v", err))
	}
	r.dir = d
	r.startPos = startPos(d, r.cur, r.tick)
	obsDirReads.Inc()
	obsDirPackets.Add(int64(r.overhead))
	r.trace.Record(obs.EvDirRead, int64(r.tick), int64(r.overhead))
}

// StartPos returns the logical position the radio starts at: the content on
// the air on its channel at tune-in (after the directory bootstrap for a
// cold radio). Pass it to broadcast.NewFeedTuner.
func (r *Rx) StartPos() int {
	r.ensureDir()
	return r.startPos
}

// Len implements broadcast.Feed: the logical cycle length.
func (r *Rx) Len() int {
	r.ensureDir()
	return r.dir.LogicalLen
}

// At implements broadcast.Feed: receive the packet at logical position abs,
// hopping to its channel and waiting for its next slot on the global clock.
func (r *Rx) At(abs int) (packet.Packet, bool) {
	r.ensureDir()
	c, t := r.tune(abs)
	p, ok := r.src.Receive(c, t)
	r.perChannel[c]++
	r.tick = t + 1
	if ok && p.Version != r.dir.Version {
		r.stale = true
	}
	return p, ok
}

// Span implements broadcast.Spanner: receive logical positions from abs on
// as one run, clamped to the stretch one channel carries contiguously
// (Directory.Extent) — one lookup and at most one hop for the run, then
// the source's view of its consecutive ticks. The clock, the per-channel
// counts and the staleness flag move exactly as that many At calls would
// move them.
//
//air:noalloc
func (r *Rx) Span(abs, n int) ([]packet.Packet, uint64) {
	r.ensureDir()
	if !r.dir.Identity() {
		n = min(n, r.dir.Extent(abs%r.dir.LogicalLen))
	}
	c, t := r.tune(abs)
	pkts, lost := r.src.Span(c, t, n)
	r.perChannel[c] += len(pkts)
	r.tick = t + len(pkts)
	for i := range pkts {
		if lost&(1<<i) == 0 && pkts[i].Version != r.dir.Version {
			r.stale = true
		}
	}
	return pkts, lost
}

// tune returns the channel carrying logical position abs and its arrival
// tick, hopping there first if the radio is on another channel.
func (r *Rx) tune(abs int) (channel, tick int) {
	c, t := r.arrival(abs)
	if c != r.cur {
		r.src.Hop(r.cur, c, t)
		r.cur = c
		r.hops++
		obsHops.Inc()
		r.trace.Record(obs.EvHop, int64(abs), int64(c))
	}
	return c, t
}

// Stale implements broadcast.Refreshable: the air swapped to a cycle
// version the radio's directory does not describe.
func (r *Rx) Stale() bool { return r.stale }

// arrival maps a logical position to its channel and next arrival tick.
// Retuning to another channel costs one tick: the radio cannot receive on
// the new frequency in the same packet slot it left the old one — and, on
// the live side, the shard it is leaving holds the shared clock only
// through the current tick, so the destination may already have transmitted
// it. The +1 is therefore both the physical hop cost and the reason a live
// hop can never race the air it is hopping to.
func (r *Rx) arrival(abs int) (channel, tick int) {
	if r.dir.Identity() {
		// Logical position == slot == tick: serve abs itself so arbitrary
		// forward jumps reproduce the single-channel substrate exactly.
		if abs >= r.tick {
			return 0, abs
		}
		return 0, r.tick + mod(abs-r.tick, r.dir.ChanLens[0])
	}
	c, slot := r.dir.Lookup(abs % r.dir.LogicalLen)
	base := r.tick
	if c != r.cur {
		base++
	}
	return c, base + mod(slot-base, r.dir.ChanLens[c])
}

// Prefetch implements broadcast.Prefetcher: the tuner is about to listen to
// logical positions [abs, abs+n) back to back. The span is clamped to the
// stretch carried contiguously on one channel and forwarded to the source,
// which (live) lets the station fill the subscription buffer ahead of the
// per-packet clock handshake. Receptions and metrics are unchanged.
func (r *Rx) Prefetch(abs, n int) {
	if n <= 1 {
		return
	}
	r.ensureDir()
	if !r.dir.Identity() {
		if ext := r.dir.Extent(abs % r.dir.LogicalLen); n > ext {
			n = ext
		}
	}
	c, t0 := r.arrival(abs)
	r.src.Prefetch(c, t0, n)
}

// Clock implements broadcast.Clocked.
func (r *Rx) Clock() int { return r.tick }

// TuneIn implements broadcast.Clocked.
func (r *Rx) TuneIn() int { return r.t0 }

// WaitFor implements broadcast.Hopping: ticks until logical abs is next on
// the air.
func (r *Rx) WaitFor(abs int) int {
	r.ensureDir()
	_, t := r.arrival(abs)
	return t - r.tick
}

// Overhead implements broadcast.Hopping: packets received during the
// directory bootstrap (zero for a warm radio).
func (r *Rx) Overhead() int { return r.overhead }

// Hops returns how many times the radio retuned to another channel.
func (r *Rx) Hops() int { return r.hops }

// PerChannel returns packets received per channel (bootstrap included).
func (r *Rx) PerChannel() []int {
	out := make([]int, len(r.perChannel))
	copy(out, r.perChannel)
	return out
}

// Missed returns how many positions a live source served this radio as
// lost because it fell behind a paced air (zero on replay sources).
func (r *Rx) Missed() int {
	if m, ok := r.src.(interface{ Missed() int }); ok {
		return m.Missed()
	}
	return 0
}

// Close releases the radio's source (live subscriptions) and flushes its
// per-channel airtime into the shared counters. Flushing here — not per
// packet — keeps At() free of counter updates; the channel label is the
// shard index, bounded by the deployment's K.
func (r *Rx) Close() {
	r.flush()
	r.src.Close()
}

// flush adds the radio's per-channel packet counts to the channel
// counters.
//
//air:noalloc
func (r *Rx) flush() {
	for c, n := range r.perChannel {
		if n > 0 {
			channelPackets(c).Add(int64(n))
		}
	}
}

// mod returns a in [0, m).
func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}
