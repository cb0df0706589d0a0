package core

import (
	"fmt"

	"repro/internal/airidx"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/scheme"
)

// Options configure the EB and NR methods.
type Options struct {
	// Regions is the number of kd-tree partitions (power of two; the paper
	// fine-tunes to 32 for both methods on the default network).
	Regions int
	// Segments enables the cross-border/local data segmentation of Section
	// 4.1 (about a 20% tuning-time reduction in the paper). On by default
	// via DefaultOptions.
	Segments bool
	// MemoryBound enables the client-side super-edge pre-computation of
	// Section 6.1: regions are contracted as they arrive and their raw data
	// is discarded, trading CPU for roughly 35% lower peak memory.
	MemoryBound bool
	// SquareCells disables (when false) the w×w square packing of EB's
	// min/max matrix, falling back to row-major runs; exists for the
	// loss-resilience ablation.
	SquareCells bool
}

// DefaultOptions mirror the paper's defaults for the Germany network.
func DefaultOptions() Options {
	return Options{Regions: 32, Segments: true, SquareCells: true}
}

// EB is the Elliptic Boundary method's server side: it partitions the
// network with a kd-tree, pre-computes the min/max inter-region distance
// matrix over border-node shortest paths, and assembles a (1,m)-interleaved
// broadcast cycle whose index copies sit between region data segments.
type EB struct{ base }

// NewEB builds the EB server for g.
func NewEB(g *graph.Graph, opts Options) (*EB, error) {
	kd, regions, border, err := precomputeFor(g, opts.Regions)
	if err != nil {
		return nil, fmt.Errorf("core: EB: %w", err)
	}
	return NewEBShared(g, kd, regions, border, opts), nil
}

// NewEBShared builds an EB server reusing pre-computed border data, so
// experiments comparing EB and NR (which share pre-computation per the
// paper) pay for it once.
func NewEBShared(g *graph.Graph, kd *partition.KDTree, regions *precompute.Regions, border *precompute.BorderData, opts Options) *EB {
	return newEB(base{name: "EB", opts: opts, g: g, kd: kd, regions: regions, border: border})
}

// newEB finishes b into an EB server, assembling the cycle it lacks.
func newEB(b base) *EB {
	e := &EB{b}
	if e.cycle == nil {
		e.cycle = e.assemble()
	}
	return e
}

// regionSegments orders each region's nodes (cross-border first when
// segmentation is on) and returns per-region (cross, local) packet slices.
// Regions encode independently, so the work fans across GOMAXPROCS workers;
// the per-region outputs (and therefore the assembled cycle) are
// byte-identical to a serial encode.
func regionSegments(g *graph.Graph, regions *precompute.Regions, border *precompute.BorderData, segments bool) (cross, local [][]packet.Packet) {
	n := regions.N
	cross = make([][]packet.Packet, n)
	local = make([][]packet.Packet, n)
	precompute.ParallelFor(n, func(r int) {
		if segments {
			ordered, nCross := precompute.SplitSegments(regions.Nodes[r], border.CrossBorder)
			cross[r] = netdata.EncodeNodes(g, ordered[:nCross], regions.IsBorder, nil)
			local[r] = netdata.EncodeNodes(g, ordered[nCross:], regions.IsBorder, nil)
		} else {
			// Without segmentation everything is "cross": clients always
			// listen to the whole region.
			cross[r] = netdata.EncodeNodes(g, regions.Nodes[r], regions.IsBorder, nil)
		}
	})
	return cross, local
}

// assemble lays out the EB cycle: the (1,m)-interleaving of index copies
// between region data segments, and the index carrying the final offsets.
func (e *EB) assemble() *broadcast.Cycle {
	n := e.regions.N
	cross, local := regionSegments(e.g, e.regions, e.border, e.opts.Segments)
	totalData := 0
	for r := 0; r < n; r++ {
		totalData += len(cross[r]) + len(local[r])
	}
	cellW := 3
	if !e.opts.SquareCells {
		cellW = 1 // degenerate blocks: row-major runs of single cells
	}
	buildIndex := func(offs []airidx.RegionOffset) []packet.Packet {
		var recs []airidx.Rec
		recs = append(recs, airidx.KDSplitRecords(e.kd.Splits())...)
		recs = append(recs, airidx.EBCellRecords(e.border.MinDist, e.border.MaxDist, cellW)...)
		recs = append(recs, airidx.OffsetRecords(offs, false)...)
		return airidx.PackIndex(recs, e.g.NumNodes(), n, airidx.GlobalRegion)
	}

	// Pass 1: index size with placeholder offsets (fixed-width fields, so
	// the packet count is identical with real values).
	nIdx := len(buildIndex(make([]airidx.RegionOffset, n)))
	m := broadcast.OptimalM(totalData, nIdx)

	// Layout: m index copies forced between regions (never cutting a
	// region's data), at approximately even data intervals; -1 is an index
	// copy, anything else a region.
	var layout []int
	emitted := 0
	copies := 0
	for r := 0; r < n; r++ {
		if copies < m && emitted*m >= copies*totalData {
			layout = append(layout, -1)
			copies++
		}
		layout = append(layout, r)
		emitted += len(cross[r]) + len(local[r])
	}
	for copies < m {
		layout = append(layout, -1)
		copies++
	}

	// Compute final positions.
	offs := make([]airidx.RegionOffset, n)
	pos := 0
	for _, r := range layout {
		if r < 0 {
			pos += nIdx
			continue
		}
		offs[r] = airidx.RegionOffset{DataStart: pos, NCross: len(cross[r]), NLocal: len(local[r])}
		pos += len(cross[r]) + len(local[r])
	}
	idx := buildIndex(offs)
	if len(idx) != nIdx {
		panic("core: EB index size changed between passes")
	}

	asm := broadcast.NewAssembler()
	for _, r := range layout {
		if r < 0 {
			asm.Append(packet.KindIndex, -1, "EB index", idx)
			continue
		}
		asm.Append(packet.KindData, r, fmt.Sprintf("R%d cross", r), cross[r])
		if len(local[r]) > 0 {
			asm.Append(packet.KindData, r, fmt.Sprintf("R%d local", r), local[r])
		}
	}
	return asm.Finish()
}

// NewClient implements scheme.Server.
func (e *EB) NewClient() scheme.Client {
	return &EBClient{opts: e.opts}
}

// EBClient answers queries per Section 4.2: receive one index copy, derive
// the upper bound UB = A[Rs][Rt].max, prune regions by
// min(Rs,R)+min(R,Rt) <= UB, receive the surviving regions' data, and run
// Dijkstra over their union.
//
// Like NRClient, an EBClient models one device answering a stream of
// queries: index accumulators, the receive queues and the frame's collector
// and search (scheme.Local) persist across Query calls and are reset rather
// than reallocated. Not safe for concurrent use.
type EBClient struct {
	scheme.Local
	opts Options

	idx    ebIndex
	needed []int
	remain []int // remain[region]: the region's packets not yet received intact
	plan   broadcast.Plan
	skel   skeleton
}

// Name implements scheme.Client.
func (c *EBClient) Name() string { return "EB" }

// ebIndex is the client-side reassembly of one EB index copy.
type ebIndex struct {
	meta    airidx.Meta
	haveLen bool
	gotSeq  []bool
	nGot    int
	missing []int // missingSeqs' scratch

	splits *airidx.SplitsAccum
	cells  *airidx.CellsAccum
	offs   *airidx.OffsetsAccum
}

// reset forgets all per-query state while keeping the accumulators for
// reuse (re-initialized size-checked when the first meta arrives).
func (x *ebIndex) reset() {
	x.haveLen = false
	x.nGot = 0
}

func (x *ebIndex) process(p packet.Packet, ok bool) {
	if !ok {
		return
	}
	meta, found := indexMeta(p)
	if !found {
		return
	}
	if !x.haveLen {
		x.meta = meta
		x.haveLen = true
		x.gotSeq = resizeCleared(x.gotSeq, meta.Packets)
		x.splits = airidx.ResetSplitsAccum(x.splits, meta.NumRegions)
		x.cells = airidx.ResetCellsAccum(x.cells, meta.NumRegions)
		x.offs = airidx.ResetOffsetsAccum(x.offs, meta.NumRegions)
	}
	if meta.Seq < len(x.gotSeq) && !x.gotSeq[meta.Seq] {
		x.gotSeq[meta.Seq] = true
		x.nGot++
	}
	packet.ForEachRecord(p.Payload, func(tag uint8, data []byte) bool {
		switch tag {
		case packet.TagKDSplits:
			x.splits.Add(data)
		case packet.TagEBCells:
			x.cells.Add(data)
		case packet.TagRegionOffsets:
			x.offs.Add(data)
		}
		return true
	})
}

// indexMeta extracts the TagMeta record of an index packet without
// allocating.
func indexMeta(p packet.Packet) (meta airidx.Meta, found bool) {
	packet.ForEachRecord(p.Payload, func(tag uint8, data []byte) bool {
		if tag == packet.TagMeta {
			meta, found = airidx.DecodeMeta(data)
			return false
		}
		return true
	})
	return meta, found
}

func (x *ebIndex) complete() bool {
	return x.haveLen && x.splits.Complete() && x.cells.Complete() && x.offs.Complete()
}

// missingSeqs returns the copy-relative packet positions still needed, in
// ascending order, in the index's scratch: valid until the next call.
func (x *ebIndex) missingSeqs() []int {
	x.missing = x.missing[:0]
	if !x.haveLen {
		return x.missing
	}
	for s, got := range x.gotSeq {
		if !got {
			x.missing = append(x.missing, s)
		}
	}
	return x.missing
}

// Query implements scheme.Client.
func (c *EBClient) Query(t *broadcast.Tuner, q scheme.Query) (scheme.Result, error) {
	c.Begin()

	// Step 1: find and receive an index copy (Algorithm 1, lines 1-7).
	idx := &c.idx
	idx.reset()
	if err := receiveFullIndex(t, idx); err != nil {
		return scheme.Result{}, err
	}
	n := idx.meta.NumRegions
	// Client retains splits, the n×n min/max matrix and the directory.
	c.Mem.Alloc(4*(n-1) + 8*n*n + 8*n)

	c.StartCPU()
	kd, err := partition.KDTreeFromSplits(idx.splits.Vals)
	if err != nil {
		return scheme.Result{}, fmt.Errorf("core: EB client: %w", err)
	}
	rs := kd.RegionOf(q.SX, q.SY)
	rt := kd.RegionOf(q.TX, q.TY)

	// Step 2: prune regions with the elliptic condition (lines 8-10).
	ub := idx.cells.MaxAt(rs, rt)
	needed := c.needed[:0]
	for r := 0; r < n; r++ {
		if r == rs || r == rt || idx.cells.MinAt(rs, r)+idx.cells.MinAt(r, rt) <= ub {
			needed = append(needed, r)
		}
	}
	c.needed = needed
	c.StopCPU()

	// Step 3: receive the needed regions (lines 11-15): each one's
	// cross-border segment, and the local one too for the terminal regions
	// rs and rt, then the packets lost on air in later cycles (Section
	// 6.2). With memory-bound processing on, a region is contracted into
	// super-edges as its last packet arrives.
	coll := c.Collector(idx.meta.NumNodes)
	var ctr *contractor
	if c.opts.MemoryBound {
		ctr = newContractor(kd, coll, q, rs, rt, &c.Local, &c.skel)
	}
	remain := resizeCleared(c.remain, n)
	c.remain = remain
	plan := &c.plan
	plan.Reset()
	for _, r := range needed {
		o := idx.offs.Offs[r]
		remain[r] = o.NCross
		if !c.opts.Segments || r == rs || r == rt {
			remain[r] += o.NLocal
		}
		if remain[r] == 0 && ctr != nil {
			ctr.contract(r)
		}
		plan.Want(r, o.DataStart, remain[r])
	}
	data := func(r, cyclePos int, p packet.Packet) {
		coll.Process(cyclePos, p)
		if remain[r]--; remain[r] == 0 && ctr != nil {
			ctr.contract(r)
		}
	}
	t.Fetch(plan, data)
	t.Recover(plan, data)

	// Step 4: Dijkstra over the union (line 16). With memory-bound
	// processing the collector holds the union of the regions' skeletons,
	// which contains a true shortest path by the Section 6.1 argument, so
	// the result is exact and needs no expansion.
	c.StartCPU()
	r := c.Dijkstra(coll.Net, q.S, q.T, nil)
	c.StopCPU()
	return c.Result(t, r.Dist, r.Path), nil
}

// receiveFullIndex positions the tuner on the next index copy (using the
// per-packet next-index pointer) and receives it completely, patching
// packets lost in one copy from subsequent copies (Section 6.2).
func receiveFullIndex(t *broadcast.Tuner, idx *ebIndex) error {
	// Initial packet: every packet carries the pointer to the next index.
	copyStart, err := t.SeekIndex()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for rounds := 0; !idx.complete(); rounds++ {
		if rounds > 64 {
			return fmt.Errorf("core: index not received after %d copies", rounds)
		}
		nextPtr := receiveIndexCopyAt(t, idx, copyStart)
		if idx.complete() {
			break
		}
		if nextPtr <= copyStart {
			// Every packet of the copy was lost: listen on until an intact
			// packet points at the next index copy.
			if nextPtr, err = t.SeekIndex(); err != nil {
				return fmt.Errorf("core: next index copy: %w", err)
			}
		}
		copyStart = nextPtr
		t.SleepTo(copyStart)
	}
	return nil
}

// receiveIndexCopyAt receives the (still missing parts of the) index copy
// starting at absolute position copyStart, where the tuner is positioned.
// It returns the absolute position of the following index copy as learned
// from packet pointers (or -1 if no intact packet was seen).
func receiveIndexCopyAt(t *broadcast.Tuner, idx *ebIndex, copyStart int) int {
	nextPtr := -1
	note := func(abs int, p packet.Packet, ok bool) {
		idx.process(p, ok)
		// Within a copy each packet's pointer names the next index packet,
		// i.e. usually its own successor; only pointers landing beyond this
		// copy locate the *next* copy. Meta arrives with any intact packet,
		// so haveLen is set before this check matters.
		if ok && idx.haveLen {
			cand := abs + int(p.NextIndex)
			if cand >= copyStart+idx.meta.Packets && (nextPtr < 0 || cand < nextPtr) {
				nextPtr = cand
			}
		}
	}
	if idx.haveLen {
		// Fetch only the missing copy-relative positions still ahead, each
		// run of consecutive ones as one span.
		seqs := idx.missingSeqs()
		for i := 0; i < len(seqs); {
			j := i + 1
			for j < len(seqs) && seqs[j] == seqs[j-1]+1 {
				j++
			}
			from, to := max(copyStart+seqs[i], t.Pos()), copyStart+seqs[j-1]+1
			if from < to {
				t.SleepTo(from)
				t.ListenSpan(to-from, note)
			}
			i = j
		}
		return nextPtr
	}
	// Length unknown: listen packet by packet while the header says index.
	for guard := 0; guard <= t.CycleLen(); guard++ {
		abs := t.Pos()
		p, ok := t.Listen()
		if p.Kind != packet.KindIndex {
			break
		}
		note(abs, p, ok)
		if idx.haveLen && abs-copyStart == idx.meta.Packets-1 {
			break
		}
	}
	return nextPtr
}
