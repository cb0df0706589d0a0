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
	"io"
	"math"

	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netgen"
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
	// Regions is the EB/NR partition count (ArcFlag gets half); 0 fine-tunes
	// it per network size (autoRegions), as the paper tunes per network. The
	// other methods build at their paper defaults (4 landmarks, HiTi depth 3).
	Regions int
	Out     io.Writer
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
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
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
	generate := func() (*graph.Graph, error) { return p.Generate(c.Seed) }
	if c.NoCache {
		g, err := generate()
		return g, p, err
	}
	g, err := servercache.Get(servercache.Key{Network: c.netKey(preset), Scheme: "graph"}, generate)
	return g, p, err
}

// heapBudget is the Table 2 feasibility threshold, scaled with the network.
func (c Config) heapBudget() float64 {
	return float64(metrics.HeapBudgetBytes) * c.Scale
}

// server builds one method's server on the preset network g through the
// one build path, keyed by the network's name so every table, figure and
// bench fixture naming the same (network, method, params) shares one build.
// EB and NR share one pre-computation, as in the paper's Table 3: through
// the cache, or — under NoCache, which keys nothing — by prev, the server
// built just before on g, lending its own.
func (c Config) server(g *graph.Graph, preset string, m build.Method, p build.Params, prev scheme.Server) (scheme.Server, error) {
	r := build.Request{Graph: g, Method: m, Params: p, Prev: prev}
	if !c.NoCache {
		r.Key = build.Key(c.netKey(preset), m, p)
	}
	return build.Server(r)
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
	air, err := transport.NewOfflineAir(srv.Cycle(), 1, loss, seed)
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

// params returns method m's paper-tuned build parameters on g.
func (c Config) params(g *graph.Graph, m build.Method) build.Params {
	regions := c.Regions
	if regions == 0 {
		regions = autoRegions(g.NumNodes())
	}
	switch m {
	case build.EB, build.NR:
		return build.Params{Regions: regions}
	case build.AF:
		return build.Params{Regions: max(regions/2, 8)}
	}
	return build.Params{}
}

// servers builds the named methods on one network at their tuned parameters.
// NR and EB are adjacent in both presentation orders, so under NoCache the
// second borrows the first's pre-computation.
func (c Config) servers(g *graph.Graph, preset string, names []string) (map[string]scheme.Server, error) {
	out := map[string]scheme.Server{}
	var prev scheme.Server
	for _, name := range names {
		m := build.Method(name)
		srv, err := c.server(g, preset, m, c.params(g, m), prev)
		if err != nil {
			return nil, err
		}
		out[name], prev = srv, srv
	}
	return out, nil
}

// MethodOrder is the presentation order used across tables (paper order).
var MethodOrder = []string{"DJ", "NR", "EB", "LD", "AF", "SPQ", "HiTi"}

// ComparableOrder lists the five methods measured in Figures 10-14.
var ComparableOrder = []string{"NR", "EB", "DJ", "LD", "AF"}
