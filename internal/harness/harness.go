// Package harness regenerates every table and figure of the paper's
// evaluation (Section 7 and Appendix C): broadcast cycle lengths (Table 1),
// method applicability under the reference device's heap (Table 2), server
// pre-computation time (Table 3), the four client-side metrics versus path
// length (Figure 10), partition/landmark fine-tuning (Figure 11), the five
// networks (Figure 12), memory-bound processing (Figure 13), and packet
// loss (Figure 14).
//
// Experiments run on synthetic presets mirroring the paper's networks (see
// internal/netgen); a scale factor shrinks them for CI-sized runs, scaling
// the heap budget alongside so Table 2's feasibility frontier is preserved.
package harness

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"repro/internal/baseline/arcflag"
	"repro/internal/baseline/djair"
	"repro/internal/baseline/hiti"
	"repro/internal/baseline/landmark"
	"repro/internal/baseline/spq"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/scheme"
	"repro/internal/servercache"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Config parameterizes one experiment run.
type Config struct {
	// Preset names the network (default "germany", the paper's default).
	Preset string
	// Scale shrinks preset sizes; 1.0 is paper-sized. The heap budget for
	// Table 2 scales along.
	Scale float64
	// Queries per experiment (paper: 400).
	Queries int
	// Seed drives network generation, workloads and channel loss.
	Seed int64
	// Regions for EB/NR (paper tuning: 32), ArcFlag (16), landmarks (4).
	Regions     int
	AFRegions   int
	Landmarks   int
	HiTiDepth   int
	IncludeSlow bool // include SPQ and HiTi where optional
	Out         io.Writer
	// NoCache disables the shared server/cycle cache (internal/servercache)
	// for this run. Benchmarks that measure build cost set it; experiment
	// sweeps leave it off so identical networks and servers build once.
	NoCache bool
}

// Defaults fills unset fields with the paper's tuned values.
func (c Config) Defaults() Config {
	if c.Preset == "" {
		c.Preset = "germany"
	}
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.Queries == 0 {
		c.Queries = 400
	}
	// Regions and AFRegions stay 0 here: they are fine-tuned per network
	// size at build time (autoRegions), as the paper tunes per network.
	if c.Landmarks == 0 {
		c.Landmarks = 4
	}
	if c.HiTiDepth == 0 {
		c.HiTiDepth = 3
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// cached memoizes build under key in the shared server cache, or calls it
// directly when the config opts out.
func cached[T any](c Config, key servercache.Key, build func() (T, error)) (T, error) {
	if c.NoCache {
		return build()
	}
	return servercache.Get(key, build)
}

// netKey canonically names the (preset, scale, seed) network.
func (c Config) netKey(preset string) string {
	return fmt.Sprintf("%s@%g#%d", preset, c.Scale, c.Seed)
}

// network builds the (scaled) preset network, sharing one generated graph
// per (preset, scale, seed) across experiments.
func (c Config) network(preset string) (*graph.Graph, netgen.Preset, error) {
	p, err := netgen.PresetByName(preset)
	if err != nil {
		return nil, p, err
	}
	p = p.Scaled(c.Scale)
	g, err := cached(c, servercache.Key{Network: c.netKey(preset), Scheme: "graph"},
		func() (*graph.Graph, error) { return p.Generate(c.Seed) })
	return g, p, err
}

// heapBudget is the Table 2 feasibility threshold, scaled with the network.
func (c Config) heapBudget() float64 {
	return float64(metrics.HeapBudgetBytes) * c.Scale
}

// coreBundle builds EB and NR sharing one pre-computation, as the paper
// does ("Note that EB and NR have the same cost as they need to pre-compute
// the exact same shortest paths").
type coreBundle struct {
	EB  *core.EB
	NR  *core.NR
	Pre time.Duration
}

// poiKey canonically names a POI mask for cache keys: a content hash, so
// two masks of equal length but different bits never collide.
func poiKey(poi []bool) string {
	if len(poi) == 0 {
		return "-"
	}
	h := fnv.New64a()
	var b [1]byte
	for _, p := range poi {
		b[0] = 0
		if p {
			b[0] = 1
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%x", len(poi), h.Sum64())
}

// graphKey canonically names a built network for downstream cache keys.
// Graphs themselves are cached per (preset, scale, seed), so the pointer is
// a stable identity; a NoCache run bypasses every cache layer anyway.
func graphKey(g *graph.Graph) string { return fmt.Sprintf("%p", g) }

func buildCore(c Config, g *graph.Graph, regions int, opts core.Options) (*coreBundle, error) {
	key := servercache.Key{
		Network: graphKey(g),
		Scheme:  "core",
		Params:  fmt.Sprintf("r=%d seg=%v sq=%v mb=%v poi=%s", regions, opts.Segments, opts.SquareCells, opts.MemoryBound, poiKey(opts.POI)),
	}
	return cached(c, key, func() (*coreBundle, error) {
		kd, err := partition.NewKDTree(g, regions)
		if err != nil {
			return nil, err
		}
		reg := precompute.BuildRegions(g, kd)
		bd := precompute.Compute(g, reg)
		opts.Regions = regions
		eb := core.NewEBShared(g, kd, reg, bd, opts)
		nr, err := core.NewNRShared(g, kd, reg, bd, opts)
		if err != nil {
			return nil, err
		}
		return &coreBundle{EB: eb, NR: nr, Pre: bd.Elapsed}, nil
	})
}

// MethodResult aggregates one method's measurements over a workload.
type MethodResult struct {
	Name      string
	Agg       metrics.Agg
	PerBucket [workload.Buckets]metrics.Agg
	Errors    int
}

// runWorkload executes the workload against one server over a channel with
// the given loss rate.
func runWorkload(srv scheme.Server, w *workload.Workload, loss float64, seed int64) (MethodResult, error) {
	res := MethodResult{Name: srv.Name()}
	air, err := transport.NewOffline(srv.Cycle(), loss, seed)
	if err != nil {
		return res, err
	}
	client := srv.NewClient()
	for _, q := range w.Queries {
		att, err := air.Attach(transport.Tune{Cursor: q.TuneIn % air.Len()})
		if err != nil {
			return res, err
		}
		r, err := client.Query(att.Tuner(), q.Query)
		att.Release(0)
		if err != nil || !workload.SameDist(r.Dist, q.RefDist) {
			res.Errors++
			continue
		}
		res.Agg.Add(r.Metrics)
		res.PerBucket[q.Bucket].Add(r.Metrics)
	}
	return res, nil
}

// autoRegions fine-tunes the partition count to the network size the way
// the paper tunes per network (32 regions for the 28,867-node Germany):
// the nearest power of two to sqrt(n)/5.3, clamped to [8, 128].
func autoRegions(n int) int {
	target := math.Sqrt(float64(n)) / 5.3
	r := 8
	for r < 128 && float64(r)*1.5 < target {
		r *= 2
	}
	return r
}

// regionsFor resolves the configured or auto-tuned region counts.
func (c Config) regionsFor(g *graph.Graph) (ebnr, af int) {
	ebnr, af = c.Regions, c.AFRegions
	if ebnr == 0 {
		ebnr = autoRegions(g.NumNodes())
	}
	if af == 0 {
		af = max(ebnr/2, 8)
	}
	return ebnr, af
}

// buildAll constructs the five comparable methods (DJ, NR, EB, LD, AF) on
// one network, sharing EB/NR pre-computation.
func (c Config) buildAll(g *graph.Graph) (map[string]scheme.Server, error) {
	ebnrRegions, afRegions := c.regionsFor(g)
	bundle, err := buildCore(c, g, ebnrRegions, core.Options{Segments: true, SquareCells: true})
	if err != nil {
		return nil, err
	}
	af, err := cached(c, servercache.Key{Network: graphKey(g), Scheme: "AF", Params: fmt.Sprintf("r=%d", afRegions)},
		func() (scheme.Server, error) { return arcflag.New(g, arcflag.Options{Regions: afRegions}) })
	if err != nil {
		return nil, err
	}
	ld, err := cached(c, servercache.Key{Network: graphKey(g), Scheme: "LD", Params: fmt.Sprintf("l=%d", c.Landmarks)},
		func() (scheme.Server, error) { return landmark.New(g, landmark.Options{Landmarks: c.Landmarks}) })
	if err != nil {
		return nil, err
	}
	dj, err := cached(c, servercache.Key{Network: graphKey(g), Scheme: "DJ"},
		func() (scheme.Server, error) { return djair.New(g), nil })
	if err != nil {
		return nil, err
	}
	return map[string]scheme.Server{
		"DJ": dj,
		"EB": bundle.EB,
		"NR": bundle.NR,
		"AF": af,
		"LD": ld,
	}, nil
}

// buildSlow constructs SPQ and HiTi (expensive pre-computation).
func (c Config) buildSlow(g *graph.Graph) (map[string]scheme.Server, error) {
	sp, err := cached(c, servercache.Key{Network: graphKey(g), Scheme: "SPQ"},
		func() (scheme.Server, error) { return spq.New(g) })
	if err != nil {
		return nil, err
	}
	ht, err := cached(c, servercache.Key{Network: graphKey(g), Scheme: "HiTi", Params: fmt.Sprintf("d=%d", c.HiTiDepth)},
		func() (scheme.Server, error) { return hiti.New(g, hiti.Options{Depth: c.HiTiDepth}) })
	if err != nil {
		return nil, err
	}
	return map[string]scheme.Server{"SPQ": sp, "HiTi": ht}, nil
}

// MethodOrder is the presentation order used across tables (paper order).
var MethodOrder = []string{"DJ", "NR", "EB", "LD", "AF", "SPQ", "HiTi"}

// ComparableOrder lists the five methods measured in Figures 10-14.
var ComparableOrder = []string{"NR", "EB", "DJ", "LD", "AF"}
