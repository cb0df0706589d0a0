// Package build is the one build path: every scheme server in the repo — a
// Deploy, an update manager's rebuild, a harness table or figure, a fuzz
// execution — is constructed, warm-loaded, persisted and rebuilt here, by
// one walk (DESIGN.md §5):
//
//	key ─► memory (servercache.Get) ─miss─► disk tier ─miss─► cold build ─► persist
//
// A request without a key skips both cache tiers. What a scheme persists,
// how it is re-wrapped around a loaded cycle and how it is re-weighed onto
// mutated arc weights is stated once, in the methods table: EB and NR keep
// border parts (shared by the two) + cycle, DJ its cycle, and AF, LD, SPQ
// and HiTi — no disk codec, no continent-scale ambition — always build cold.
package build

import (
	"cmp"
	"fmt"

	"repro/internal/baseline/arcflag"
	"repro/internal/baseline/djair"
	"repro/internal/baseline/hiti"
	"repro/internal/baseline/landmark"
	"repro/internal/baseline/spq"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/scheme"
	"repro/internal/servercache"
)

// Method names an air-index scheme.
type Method string

// The seven methods of the paper's evaluation.
const (
	EB   Method = "EB"   // Elliptic Boundary (Section 4, the paper's contribution)
	NR   Method = "NR"   // Next Region (Section 5, the paper's contribution)
	DJ   Method = "DJ"   // broadcast adaptation of Dijkstra's algorithm
	AF   Method = "AF"   // broadcast adaptation of ArcFlag
	LD   Method = "LD"   // broadcast adaptation of Landmark (ALT)
	SPQ  Method = "SPQ"  // broadcast adaptation of the shortest-path quadtree
	HiTi Method = "HiTi" // broadcast adaptation of HiTi
)

// Methods lists all implemented methods in the paper's presentation order.
var Methods = []Method{DJ, NR, EB, LD, AF, SPQ, HiTi}

// Params tunes a method's server. Zero values select the paper's defaults.
type Params struct {
	// Regions is the kd-tree partition count for EB, NR (paper: 32) and AF
	// (paper: 16); power of two.
	Regions int
	// Landmarks is LD's anchor count (paper: 4).
	Landmarks int
	// HiTiDepth is HiTi's hierarchy depth (leaf grid 2^d x 2^d; default 3).
	HiTiDepth int
	// MemoryBound enables EB/NR's client-side super-edge pre-computation
	// (Section 6.1).
	MemoryBound bool
}

// Request names one server to build.
type Request struct {
	Graph  *graph.Graph
	Method Method
	Params Params
	// Key, when non-nil, identifies the build in the shared servercache and
	// on its disk tier (see Key). Nil builds cold and caches nothing.
	Key *servercache.Key
	// Prev, when non-nil, is a server built earlier over this road network
	// that lends what of its pre-computation still holds (core's Lend): all
	// of it when it was built over this very graph — how an unkeyed caller
	// gets EB, NR and their option variants out of one storm — and the
	// partition and regions when Graph only re-weighs its arcs.
	Prev scheme.Server

	// opts, set by Reweigh, overrides Params: a rebuild keeps the options
	// of the server it rebuilds.
	opts *core.Options
}

// coreOptions maps the request onto core's option set.
func (r *Request) coreOptions() core.Options {
	if r.opts != nil {
		return *r.opts
	}
	return core.Options{
		Regions:     cmp.Or(r.Params.Regions, 32),
		Segments:    true,
		SquareCells: true,
		MemoryBound: r.Params.MemoryBound,
	}
}

// Key canonically names, for Request.Key, the build of (method, params) on
// the network called network (e.g. "germany/0.05/42"); whoever chooses the
// name vouches that it identifies the graph.
func Key(network string, m Method, p Params) *servercache.Key {
	params := fmt.Sprintf("%+v", p) // every field, also ones added later
	return &servercache.Key{Network: network, Scheme: string(m), Params: params}
}

// methods is the per-scheme half of the walk: build constructs the server
// cold, or — tiered, i.e. codec-backed, schemes only — re-wraps it around
// the cycle the disk tier handed back; a tiered cold build is persisted.
var methods = map[Method]struct {
	tiered bool
	build  func(r *Request, cycle *broadcast.Cycle) (scheme.Server, error)
}{
	EB: {true, (*Request).sharedParts},
	NR: {true, (*Request).sharedParts},
	DJ: {true, func(r *Request, cycle *broadcast.Cycle) (scheme.Server, error) {
		if cycle != nil {
			return djair.FromCycle(r.Graph, cycle), nil
		}
		return djair.New(r.Graph), nil
	}},
	AF: {false, func(r *Request, _ *broadcast.Cycle) (scheme.Server, error) {
		return arcflag.New(r.Graph, arcflag.Options{Regions: r.Params.Regions})
	}},
	LD: {false, func(r *Request, _ *broadcast.Cycle) (scheme.Server, error) {
		return landmark.New(r.Graph, landmark.Options{Landmarks: r.Params.Landmarks})
	}},
	SPQ: {false, func(r *Request, _ *broadcast.Cycle) (scheme.Server, error) {
		return spq.New(r.Graph)
	}},
	HiTi: {false, func(r *Request, _ *broadcast.Cycle) (scheme.Server, error) {
		return hiti.New(r.Graph, hiti.Options{Depth: r.Params.HiTiDepth})
	}},
}

// Server resolves r to a server: the walk of the package comment.
func Server(r Request) (scheme.Server, error) {
	m, ok := methods[r.Method]
	if !ok {
		return nil, fmt.Errorf("repro: unknown method %q", r.Method)
	}
	if r.Key == nil {
		return m.build(&r, nil)
	}
	return servercache.Get(*r.Key, func() (scheme.Server, error) {
		var cycle *broadcast.Cycle
		if m.tiered {
			cycle = servercache.CachedCycle(*r.Key)
		}
		srv, err := m.build(&r, cycle)
		if err == nil && m.tiered && cycle == nil {
			servercache.PutCycle(*r.Key, srv.Cycle())
		}
		return srv, err
	})
}

// Reweighs reports whether m rebuilds over re-weighed arcs cheaply enough
// for a dynamic deployment: EB and NR keep their partition, DJ only
// re-encodes; the other four would start from scratch.
func Reweighs(m Method) bool { return methods[m].tiered }

// Reweigh rebuilds prev — same method, same options — over g2, a
// weight-only mutation of prev's network: the walk of Server with prev
// lending its partition and regions, so only the border storm and the
// assembly rerun. key, when non-nil, must identify g2.
func Reweigh(prev scheme.Server, g2 *graph.Graph, key *servercache.Key) (scheme.Server, error) {
	r := Request{Graph: g2, Method: Method(prev.Name()), Key: key, Prev: prev}
	if p, ok := prev.(lender); ok {
		opts := p.Options()
		r.opts = &opts
	}
	return Server(r)
}

// lender is an EB or NR server (core's shared base).
type lender interface {
	Options() core.Options
	Lend(g2 *graph.Graph) (*partition.KDTree, *precompute.Regions, *precompute.BorderData, error)
}

// sharedParts builds EB or NR over the pre-computation the two share,
// around cycle when the disk tier supplied one.
func (r *Request) sharedParts(cycle *broadcast.Cycle) (scheme.Server, error) {
	opts := r.coreOptions()
	p, err := r.parts(opts.Regions)
	if err != nil {
		return nil, err
	}
	return core.NewShared(string(r.Method), r.Graph, p.kd, p.regions, p.border, opts, cycle)
}

// parts is the pre-computation EB and NR share (Table 3: "EB and NR have
// the same cost as they need to pre-compute the exact same shortest
// paths"). It depends on the network and the region count only — not on the
// method, the segmentation or MemoryBound — so it is a cached
// artifact of its own.
type parts struct {
	kd      *partition.KDTree
	regions *precompute.Regions
	border  *precompute.BorderData
}

// parts walks to the shared pre-computation for n regions: memory, what
// Prev lends, the disk tier, then the Dijkstra storm, which is persisted.
// Only the border data is stored: partition and regions are pure functions
// of coordinates and topology, cheap to rederive.
func (r *Request) parts(n int) (*parts, error) {
	build := func(key *servercache.Key) (*parts, error) {
		var p parts
		var err error
		if prev, ok := r.Prev.(lender); ok && prev.Options().Regions == n {
			p.kd, p.regions, p.border, err = prev.Lend(r.Graph)
		} else if p.kd, err = partition.NewKDTree(r.Graph, n); err == nil {
			p.regions = precompute.BuildRegions(r.Graph, p.kd)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", r.Method, err)
		}
		if p.border == nil && key != nil {
			// A persisted border is trusted only if it was computed for this
			// partition of this many nodes.
			if b, bn, ok := servercache.CachedBorder(*key); ok && bn == n && len(b.CrossBorder) == r.Graph.NumNodes() {
				p.border = b
			}
		}
		if p.border == nil {
			p.border = precompute.Compute(r.Graph, p.regions)
			if key != nil {
				servercache.PutBorder(*key, p.border, n)
			}
		}
		return &p, nil
	}
	if r.Key == nil {
		return build(nil)
	}
	key := servercache.Key{
		Network: r.Key.Network, Scheme: "parts", Params: fmt.Sprintf("regions=%d", n), Version: r.Key.Version,
	}
	return servercache.Get(key, func() (*parts, error) { return build(&key) })
}
