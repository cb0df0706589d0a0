// Package precompute implements the server-side pre-computation shared by
// the paper's EB and NR methods (Sections 4.1 and 5.1): shortest paths
// between all border nodes of different regions, the n×n min/max inter-
// region distance matrix (EB's index component 2), the region-traversal
// sets behind NR's next-region pointers, and the cross-border/local node
// classification that lets clients skip the local segment of transit
// regions.
package precompute

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spath"
)

// RegionSet is a bitset over region indexes.
type RegionSet []uint64

// NewRegionSet returns an empty set able to hold n regions.
func NewRegionSet(n int) RegionSet { return make(RegionSet, (n+63)/64) }

// Set adds region r.
func (s RegionSet) Set(r int) { s[r/64] |= 1 << (r % 64) }

// Has reports whether region r is in the set.
func (s RegionSet) Has(r int) bool { return s[r/64]&(1<<(r%64)) != 0 }

// Or folds other into s.
func (s RegionSet) Or(other RegionSet) {
	for i := range s {
		s[i] |= other[i]
	}
}

// Regions bundles a partitioning with its node assignment and border
// structure for one graph.
type Regions struct {
	Part     partition.Partitioning
	N        int              // number of regions
	Assign   []int            // region of each node
	Nodes    [][]graph.NodeID // nodes per region, sorted by ID
	Borders  [][]graph.NodeID // border nodes per region, sorted by ID
	IsBorder []bool
}

// BuildRegions assigns every node of g to a region of part and identifies
// border nodes.
func BuildRegions(g *graph.Graph, part partition.Partitioning) *Regions {
	assign := partition.Assign(g, part)
	n := part.NumRegions()
	borders, isBorder := partition.Borders(g, assign, n)
	return &Regions{
		Part:     part,
		N:        n,
		Assign:   assign,
		Nodes:    partition.RegionNodes(assign, n),
		Borders:  borders,
		IsBorder: isBorder,
	}
}

// BorderData is the result of the EB/NR pre-computation. The paper notes
// the two methods share it exactly: "Pre-computation cost is identical to
// EB (assuming the same partitioning), as the same shortest paths among
// border nodes are computed."
type BorderData struct {
	// MinDist[i][j] and MaxDist[i][j] are the minimum and maximum shortest-
	// path distance from any border node of region i to any border node of
	// region j. The diagonal holds 0 and the max distance between distinct
	// border nodes of the same region (the safe upper bound for same-region
	// queries; see DESIGN.md).
	MinDist [][]float64
	MaxDist [][]float64
	// Traverse[i][j] is the set of regions traversed by any pre-computed
	// shortest path between border nodes of i and j: NR's n×n×n boolean
	// array A (Section 5).
	Traverse []RegionSet // flattened i*N+j
	// CrossBorder[v] reports whether v lies on at least one pre-computed
	// border-pair shortest path (Section 4.1's node classification).
	CrossBorder []bool
	// Elapsed is the wall-clock pre-computation time (the paper's Table 3).
	Elapsed time.Duration
}

// Traversal returns the region-traversal set for the ordered pair (i, j).
func (b *BorderData) Traversal(i, j, n int) RegionSet { return b.Traverse[i*n+j] }

// Compute runs the full border-pair pre-computation: one single-source
// search per border node (spath's graph kernel), followed by parent walks from
// the border targets that aggregate, for every target, the set of regions
// on its shortest path and, for every node on such a path, the cross-border
// classification.
//
// The per-border-node searches are independent, so they are fanned across
// GOMAXPROCS workers; see ComputeWorkers for the contract.
func Compute(g *graph.Graph, r *Regions) *BorderData {
	return ComputeWorkers(g, r, 0)
}

// borderJob is one unit of pre-computation: the search (and tree walks)
// rooted at border node b of region ri.
type borderJob struct {
	ri int
	b  graph.NodeID
}

// borderAccum is one worker's private accumulation state. Workers never
// share memory while jobs run; their partials merge at the end.
type borderAccum struct {
	minDist     [][]float64
	maxDist     [][]float64
	traverse    []RegionSet // flattened i*n+j
	crossBorder []bool

	// Per-source scratch, reused from job to job: the search's Dist/Parent
	// and heap, and the tree walks' memo. Nothing is cleared between
	// sources — a stamp equal to the current epoch marks an entry as
	// belonging to this source's tree.
	g       *graph.Graph
	search  spath.Search
	epoch   uint32
	masked  []uint32       // masked[v] == epoch: ros holds v's regions-on-path mask
	marked  []uint32       // marked[v] == epoch: v and its ancestors are marked cross-border
	ros     []uint64       // regions-on-path bitmask per node, words per node
	pending []graph.NodeID // the unmasked run of a parent walk, target first
	words   int
}

func newBorderAccum(g *graph.Graph, n int) *borderAccum {
	nn := g.NumNodes()
	a := &borderAccum{
		minDist:     newMatrix(n, math.Inf(1)),
		maxDist:     newMatrix(n, 0),
		traverse:    make([]RegionSet, n*n),
		crossBorder: make([]bool, nn),
		g:           g,
		masked:      make([]uint32, nn),
		marked:      make([]uint32, nn),
		pending:     make([]graph.NodeID, 0, nn),
		words:       (n + 63) / 64,
	}
	a.ros = make([]uint64, nn*a.words)
	for i := range a.traverse {
		a.traverse[i] = NewRegionSet(n)
	}
	return a
}

// processBorder folds one border node's shortest-path tree into the accum.
// Only nodes on a path to some border target are visited after the search,
// each once: a walk up the parents stops at the first node an earlier
// target's walk already handled.
//
//air:noalloc
func (a *borderAccum) processBorder(r *Regions, j borderJob) {
	n := r.N
	words := a.words
	a.search.Run(a.g, spath.Out, j.b, graph.Invalid)
	dist, parent := a.search.Dist, a.search.Parent
	a.epoch++

	for rj := 0; rj < n; rj++ {
		cell := a.traverse[j.ri*n+rj]
		for _, bt := range r.Borders[rj] {
			if bt == j.b {
				continue
			}
			d := dist[bt]
			if math.IsInf(d, 1) {
				continue
			}
			if d < a.minDist[j.ri][rj] {
				a.minDist[j.ri][rj] = d
			}
			if d > a.maxDist[j.ri][rj] {
				a.maxDist[j.ri][rj] = d
			}

			// Regions on the path from b to bt: climb to the nearest masked
			// ancestor (or the source), then unwind top-down, each node's
			// mask being its parent's plus its own region.
			pending := a.pending[:0]
			v := bt
			for v != graph.Invalid && a.masked[v] != a.epoch {
				pending = append(pending, v)
				v = parent[v]
			}
			for k := len(pending) - 1; k >= 0; k-- {
				u := pending[k]
				mask := a.ros[int(u)*words : int(u)*words+words]
				if v != graph.Invalid {
					copy(mask, a.ros[int(v)*words:int(v)*words+words])
				} else {
					clear(mask)
				}
				reg := r.Assign[u]
				mask[reg/64] |= 1 << (reg % 64)
				a.masked[u] = a.epoch
				v = u
			}
			mask := a.ros[int(bt)*words : int(bt)*words+words]
			for k := range cell {
				cell[k] |= mask[k]
			}

			// Ancestors of a border target in another region are the
			// cross-border nodes; marks go bottom-up.
			if rj != j.ri {
				for v := bt; v != graph.Invalid && a.marked[v] != a.epoch; v = parent[v] {
					a.marked[v] = a.epoch
					a.crossBorder[v] = true
				}
			}
		}
	}
}

// clampWorkers resolves a requested worker count against n units of work:
// <= 0 selects GOMAXPROCS, and the result is capped to [1, n].
func clampWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelWorkers fans the indices [0, n) across `workers` goroutines
// (resolved by clampWorkers) pulling from one atomic counter. fn receives
// the goroutine's worker id (in [0, workers)) and the index; it must only
// touch per-index outputs or per-worker state. Returns the worker count
// used, so callers can size per-worker state via the same clamp.
//
// This is the one work-stealing loop behind every parallel build step
// (border pre-computation, region encoding, NR local indexes).
func ParallelWorkers(n, workers int, fn func(worker, i int)) int {
	workers = clampWorkers(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return workers
}

// ParallelFor is ParallelWorkers with GOMAXPROCS workers and no worker id.
func ParallelFor(n int, fn func(i int)) {
	ParallelWorkers(n, 0, func(_, i int) { fn(i) })
}

// ComputeWorkers is Compute with an explicit worker count: workers <= 0
// selects GOMAXPROCS, 1 runs serially. Every worker count produces a
// bit-identical BorderData — the min/max distance folds, traversal-set
// unions and cross-border unions are all order-independent — which
// TestParallelMatchesSerial pins on the five harness networks.
func ComputeWorkers(g *graph.Graph, r *Regions, workers int) *BorderData {
	start := time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	n := r.N
	nn := g.NumNodes()

	var jobs []borderJob
	for ri := 0; ri < n; ri++ {
		for _, b := range r.Borders[ri] {
			jobs = append(jobs, borderJob{ri, b})
		}
	}
	workers = clampWorkers(len(jobs), workers)
	accums := make([]*borderAccum, workers)
	for w := range accums {
		accums[w] = newBorderAccum(g, n)
	}
	ParallelWorkers(len(jobs), workers, func(w, i int) {
		accums[w].processBorder(r, jobs[i])
	})

	bd := &BorderData{
		MinDist:     newMatrix(n, math.Inf(1)),
		MaxDist:     newMatrix(n, 0),
		Traverse:    make([]RegionSet, n*n),
		CrossBorder: make([]bool, nn),
	}
	for i := range bd.Traverse {
		bd.Traverse[i] = NewRegionSet(n)
	}
	for _, acc := range accums {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if acc.minDist[i][j] < bd.MinDist[i][j] {
					bd.MinDist[i][j] = acc.minDist[i][j]
				}
				if acc.maxDist[i][j] > bd.MaxDist[i][j] {
					bd.MaxDist[i][j] = acc.maxDist[i][j]
				}
			}
		}
		for i := range bd.Traverse {
			bd.Traverse[i].Or(acc.traverse[i])
		}
		for v, cb := range acc.crossBorder {
			if cb {
				bd.CrossBorder[v] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		bd.MinDist[i][i] = 0
		bd.Traverse[i*n+i].Set(i)
	}
	// Border nodes themselves are endpoints of the pre-computed paths.
	for v, isB := range r.IsBorder {
		if isB {
			bd.CrossBorder[v] = true
		}
	}
	bd.Elapsed = time.Since(start) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	return bd
}

func newMatrix(n int, fill float64) [][]float64 {
	flat := make([]float64, n*n)
	for i := range flat {
		flat[i] = fill
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n]
	}
	return m
}

// SplitSegments orders a region's nodes into the broadcast layout of
// Section 4.1: cross-border nodes first, local nodes second, each group
// sorted by ID. It returns the combined order and the count of cross-border
// nodes (the segment boundary).
func SplitSegments(nodes []graph.NodeID, crossBorder []bool) (ordered []graph.NodeID, nCross int) {
	ordered = make([]graph.NodeID, 0, len(nodes))
	for _, v := range nodes {
		if crossBorder[v] {
			ordered = append(ordered, v)
		}
	}
	nCross = len(ordered)
	for _, v := range nodes {
		if !crossBorder[v] {
			ordered = append(ordered, v)
		}
	}
	return ordered, nCross
}

// Need returns the regions NR must receive for a query from region i to
// region j: the traversal set plus both terminals (Section 5.1).
func (b *BorderData) Need(i, j, n int) RegionSet {
	out := NewRegionSet(n)
	out.Or(b.Traversal(i, j, n))
	out.Set(i)
	out.Set(j)
	return out
}
