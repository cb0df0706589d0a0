package core

import (
	"fmt"

	"repro/internal/airidx"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/scheme"
)

// NR is the Next Region method's server side (Section 5). Pre-computation
// is identical to EB's; the index differs: instead of one global index
// replicated (1,m) times, each region m is preceded by a small local index
// A^m whose cell [i][j] names the next region in the broadcast cycle needed
// for a shortest path from region i to region j. The client follows these
// pointers region to region and never receives indexing information it does
// not need.
type NR struct{ base }

// NewNR builds the NR server for g.
func NewNR(g *graph.Graph, opts Options) (*NR, error) {
	kd, regions, border, err := precomputeFor(g, opts.Regions)
	if err != nil {
		return nil, fmt.Errorf("core: NR: %w", err)
	}
	return NewNRShared(g, kd, regions, border, opts)
}

// NewNRShared builds an NR server reusing pre-computed border data.
func NewNRShared(g *graph.Graph, kd *partition.KDTree, regions *precompute.Regions, border *precompute.BorderData, opts Options) (*NR, error) {
	return newNR(base{name: "NR", opts: opts, g: g, kd: kd, regions: regions, border: border})
}

// newNR finishes b into an NR server, assembling the cycle it lacks.
func newNR(b base) (*NR, error) {
	if b.regions.N > 256 {
		return nil, fmt.Errorf("core: NR local indexes encode next-region cells as one byte; %d regions exceed 256", b.regions.N)
	}
	s := &NR{b}
	if s.cycle == nil {
		s.cycle = s.assemble()
	}
	return s, nil
}

// needSets materializes NEED(i,j) — the regions required for an i->j query —
// for all pairs.
func (s *NR) needSets() []precompute.RegionSet {
	n := s.regions.N
	sets := make([]precompute.RegionSet, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sets[i*n+j] = s.border.Need(i, j, n)
		}
	}
	return sets
}

// nextNeeded returns the first region in cyclic broadcast order at or after
// m that belongs to need.
func nextNeeded(need precompute.RegionSet, m, n int) int {
	for k := 0; k < n; k++ {
		r := (m + k) % n
		if need.Has(r) {
			return r
		}
	}
	return m // unreachable: NEED always contains i and j
}

func (s *NR) assemble() *broadcast.Cycle {
	n := s.regions.N
	cross, local := regionSegments(s.g, s.regions, s.border, s.opts.Segments)
	need := s.needSets()

	buildLocalIndex := func(m int, offs []airidx.RegionOffset) []packet.Packet {
		next := make([][]uint8, n)
		for i := range next {
			next[i] = make([]uint8, n)
			for j := 0; j < n; j++ {
				next[i][j] = uint8(nextNeeded(need[i*n+j], m, n))
			}
		}
		var recs []airidx.Rec
		recs = append(recs, airidx.KDSplitRecords(s.kd.Splits())...)
		recs = append(recs, airidx.OffsetRecords(offs, true)...)
		recs = append(recs, airidx.NRRowRecords(next)...)
		return airidx.PackIndex(recs, s.g.NumNodes(), n, uint16(m))
	}

	// Pass 1: every local index has the same packet count (fixed-width
	// fields), so size one with placeholders.
	nIdx := len(buildLocalIndex(0, make([]airidx.RegionOffset, n)))

	// Layout: A^0 R0 A^1 R1 ... A^{n-1} R{n-1}.
	offs := make([]airidx.RegionOffset, n)
	pos := 0
	for r := 0; r < n; r++ {
		offs[r] = airidx.RegionOffset{
			IdxStart:  pos,
			DataStart: pos + nIdx,
			NCross:    len(cross[r]),
			NLocal:    len(local[r]),
		}
		pos += nIdx + len(cross[r]) + len(local[r])
	}

	// The n local indexes build independently (each a pure function of m and
	// the shared offsets), so they are pre-computed in parallel and appended
	// in order — the assembled cycle is byte-identical to a serial build.
	indexes := make([][]packet.Packet, n)
	precompute.ParallelFor(n, func(r int) {
		indexes[r] = buildLocalIndex(r, offs)
	})
	asm := broadcast.NewAssembler()
	for r := 0; r < n; r++ {
		idx := indexes[r]
		if len(idx) != nIdx {
			panic("core: NR local index size changed between passes")
		}
		asm.Append(packet.KindIndex, r, fmt.Sprintf("A^%d", r), idx)
		asm.Append(packet.KindData, r, fmt.Sprintf("R%d cross", r), cross[r])
		if len(local[r]) > 0 {
			asm.Append(packet.KindData, r, fmt.Sprintf("R%d local", r), local[r])
		}
	}
	return asm.Finish()
}

// NewClient implements scheme.Server.
func (s *NR) NewClient() scheme.Client {
	return &NRClient{opts: s.opts}
}

// NRClient answers queries per Section 5.2 (Algorithm 2): find the next
// local index, read the next-region pointer for (Rs, Rt), sleep until that
// region, receive it together with the local index that follows it, and
// repeat until the pointer names a region already received.
//
// A client models one device answering a stream of queries, so its work
// buffers — index accumulators, the received table, the reception plan and
// the frame's collector and search (scheme.Local) — persist across Query
// calls and are reset, not reallocated, per query. Clients are not safe for
// concurrent use; a fleet gives each worker its own.
type NRClient struct {
	scheme.Local
	opts Options

	st       nrIndexState
	received []bool
	remain   []int // remain[region]: the region's packets not yet received intact
	plan     broadcast.Plan
	skel     skeleton
}

// Name implements scheme.Client.
func (c *NRClient) Name() string { return "NR" }

// nrIndexState accumulates the cycle-global components (kd splits and the
// region directory), which are replicated in every local index, plus the
// per-copy next-region rows of the most recently received local index.
type nrIndexState struct {
	meta    airidx.Meta
	haveLen bool
	splits  *airidx.SplitsAccum
	offs    *airidx.OffsetsAccum
	rows    *airidx.NRRowsAccum // rows of the latest copy
	region  int                 // which A^m the latest rows belong to
}

// reset forgets all per-query state while keeping the accumulators for
// reuse (they are re-initialized size-checked when the first meta arrives).
func (x *nrIndexState) reset() {
	x.haveLen = false
	x.region = -1
}

func (x *nrIndexState) startCopy() {
	if x.haveLen {
		x.rows = airidx.ResetNRRowsAccum(x.rows, x.meta.NumRegions)
	}
	x.region = -1
}

func (x *nrIndexState) process(p packet.Packet, ok bool) (airidx.Meta, bool) {
	if !ok {
		return airidx.Meta{}, false
	}
	meta, found := indexMeta(p)
	if !found {
		return airidx.Meta{}, false
	}
	if !x.haveLen {
		x.meta = meta
		x.haveLen = true
		x.splits = airidx.ResetSplitsAccum(x.splits, meta.NumRegions)
		x.offs = airidx.ResetOffsetsAccum(x.offs, meta.NumRegions)
		x.rows = airidx.ResetNRRowsAccum(x.rows, meta.NumRegions)
	}
	x.region = meta.Region
	packet.ForEachRecord(p.Payload, func(tag uint8, data []byte) bool {
		switch tag {
		case packet.TagKDSplits:
			x.splits.Add(data)
		case packet.TagRegionOffsets:
			x.offs.Add(data)
		case packet.TagNRRow:
			x.rows.Add(data)
		}
		return true
	})
	return meta, true
}

func (x *nrIndexState) globalsComplete() bool {
	return x.haveLen && x.splits.Complete() && x.offs.Complete()
}

// receiveLocalIndex listens to one full local index copy starting at the
// tuner's current position. It assumes the tuner is positioned at the start
// of a local index; lost packets are simply skipped (NR's Section 6.2
// strategy recovers via forced region receipt, not via index re-listening).
func (x *nrIndexState) receiveLocalIndex(t *broadcast.Tuner) {
	x.startCopy()
	if x.haveLen {
		t.ListenSpan(x.meta.Packets, func(_ int, p packet.Packet, ok bool) {
			x.process(p, ok)
		})
		return
	}
	// Length unknown yet: listen while the headers say index.
	for guard := 0; guard <= t.CycleLen(); guard++ {
		p, ok := t.Listen()
		if p.Kind != packet.KindIndex {
			return
		}
		m, intact := x.process(p, ok)
		if intact && m.Seq == m.Packets-1 {
			return
		}
	}
}

// Query implements scheme.Client.
func (c *NRClient) Query(t *broadcast.Tuner, q scheme.Query) (scheme.Result, error) {
	c.Begin()

	st := &c.st
	st.reset()

	// Step 1: find the subsequent local index (Algorithm 2, lines 1-7) and
	// keep receiving local indexes until the replicated global components
	// (splits + directory) are assembled. With no loss this is one index.
	if _, err := t.SeekIndex(); err != nil {
		return scheme.Result{}, fmt.Errorf("core: NR: %w", err)
	}
	for rounds := 0; ; rounds++ {
		if rounds > 4*256 {
			return scheme.Result{}, fmt.Errorf("core: NR: could not assemble index globals")
		}
		st.receiveLocalIndex(t)
		if st.globalsComplete() {
			break
		}
		// Skip to the next local index using the pointer of the last
		// position: listen for an intact packet, then sleep.
		if _, err := t.SeekIndex(); err != nil {
			return scheme.Result{}, fmt.Errorf("core: NR: next local index: %w", err)
		}
	}
	n := st.meta.NumRegions
	c.Mem.Alloc(4*(n-1) + 12*n) // retained splits + directory

	c.StartCPU()
	kd, err := partition.KDTreeFromSplits(st.splits.Vals)
	if err != nil {
		return scheme.Result{}, fmt.Errorf("core: NR client: %w", err)
	}
	rs := kd.RegionOf(q.SX, q.SY)
	rt := kd.RegionOf(q.TX, q.TY)
	c.StopCPU()

	coll := c.Collector(st.meta.NumNodes)
	var ctr *contractor
	if c.opts.MemoryBound {
		ctr = newContractor(kd, coll, q, rs, rt, &c.Local, &c.skel)
	}

	// Step 2: follow the next-region pointers (lines 8-19), receiving
	// each region as the chase reaches it; a region is contracted as its
	// last packet arrives when memory-bound processing is on.
	received := resizeCleared(c.received, n)
	c.received = received
	remain := resizeCleared(c.remain, n)
	c.remain = remain
	plan := &c.plan
	plan.Reset()
	data := func(r, cyclePos int, p packet.Packet) {
		coll.Process(cyclePos, p)
		if remain[r]--; remain[r] == 0 && ctr != nil {
			ctr.contract(r)
		}
	}
	for hops := 0; ; hops++ {
		if hops > 4*n+8 {
			return scheme.Result{}, fmt.Errorf("core: NR client: pointer chase did not terminate")
		}
		next := st.rows.Cell(rs, rt)
		if nrTrace != nil {
			nrTrace("hop %d: idxRegion=%d cell=%d pos=%d", hops, st.region, next, t.Pos())
		}
		forced := false
		if next < 0 {
			// The record carrying A^m[Rs][Rt] was lost: per Section 6.2 the
			// client cannot tell whether region m (the one right after this
			// index) is needed, so it receives it anyway ("R15 is received
			// anyway, and included in the final Dijkstra search").
			next = st.region
			if next < 0 {
				next = regionAfter(t, st.offs.Offs, n)
			}
			forced = true
		}
		if received[next] && !forced {
			break
		}
		if !received[next] {
			received[next] = true
			o := st.offs.Offs[next]
			remain[next] = o.NCross
			if !c.opts.Segments || next == rs || next == rt {
				remain[next] += o.NLocal
			}
			if remain[next] == 0 && ctr != nil {
				ctr.contract(next)
			}
			plan.Want(next, o.DataStart, remain[next])
			t.Fetch(plan, data)
		}
		// Receive the local index immediately after region `next`.
		after := (next + 1) % n
		t.SleepTo(t.NextOccurrence(st.offs.Offs[after].IdxStart))
		st.receiveLocalIndex(t)
		if st.rows.Cell(rs, rt) >= 0 && received[st.rows.Cell(rs, rt)] {
			break
		}
	}

	// Step 3: recover lost data packets in subsequent cycles (Section 6.2:
	// every region first, then the retries).
	t.Recover(plan, data)

	// Step 4: Dijkstra over the collected regions (line 20), exact over
	// their skeletons too (EBClient.Query).
	c.StartCPU()
	r := c.Dijkstra(coll.Net, q.S, q.T, nil)
	c.StopCPU()
	return c.Result(t, r.Dist, r.Path), nil
}

// resizeCleared returns a zeroed slice of length n, reusing buf's backing
// array when it is large enough.
func resizeCleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// regionAfter returns the region whose data segment starts next after the
// tuner's current cycle position.
func regionAfter(t *broadcast.Tuner, offs []airidx.RegionOffset, n int) int {
	l := t.CycleLen()
	cur := t.Pos() % l
	best, bestDelta := 0, l+1
	for r := 0; r < n; r++ {
		d := (offs[r].DataStart - cur + l) % l
		if d < bestDelta {
			best, bestDelta = r, d
		}
	}
	return best
}

// nrTrace, when set by tests, receives a line per pointer-chase hop.
var nrTrace func(format string, args ...any)
