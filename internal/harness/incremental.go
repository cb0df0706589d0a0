package harness

import (
	"math"
	"math/rand"
	"runtime"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/spath"
	"repro/internal/update"
)

// incrementalBatch is the number of arcs one traffic batch re-weighs, as in
// the churn scenario and the benchmark's build_update workload.
const incrementalBatch = 25

// IncrementalRow is one traffic batch of the incremental-rebuild sizing: of
// Sources border sources, Untouched have no re-weighed arc on any of their
// border-target shortest paths (what a persisted per-source dependency set
// could tell without searching), and Unchanged reach every border target at
// the same distance over the same path after the batch (what any
// source-granular scheme could skip at best).
type IncrementalRow struct {
	Seed      int64 `json:"seed"`
	Sources   int   `json:"sources"`
	Untouched int   `json:"untouched"`
	Unchanged int   `json:"unchanged"`
}

// Incremental sizes source-granular incremental re-computation of the
// border pre-computation (airbench -exp incremental): for batches seeded
// 1..4, each applied on its own to the configured network, it counts the
// border sources a weight-only rebuild could copy instead of re-running.
// A source's outputs are its distances and tree paths to the other border
// nodes — everything precompute.BorderData folds from it.
func Incremental(cfg Config) ([]IncrementalRow, error) {
	cfg = cfg.Defaults()
	g, _, err := cfg.network(cfg.Preset)
	if err != nil {
		return nil, err
	}
	kd, err := partition.NewKDTree(g, cfg.params(g, "NR").Regions)
	if err != nil {
		return nil, err
	}
	r := precompute.BuildRegions(g, kd)
	var sources []graph.NodeID
	for _, bs := range r.Borders {
		sources = append(sources, bs...)
	}
	cfg.printf("Incremental rebuild sizing — %s x%.2g (%d nodes, %d regions, %d border sources), %d-arc batches\n",
		cfg.Preset, cfg.Scale, g.NumNodes(), r.N, len(sources), incrementalBatch)
	cfg.printf("%-6s %10s %12s %12s\n", "seed", "sources", "untouched", "unchanged")

	var rows []IncrementalRow
	for seed := int64(1); seed <= 4; seed++ {
		ups := update.RandomUpdates(g, rand.New(rand.NewSource(seed)), incrementalBatch, update.ModeMixed)
		after, err := g.WithWeights(ups)
		if err != nil {
			return nil, err
		}
		changed := make(map[[2]graph.NodeID]bool, len(ups))
		for _, u := range ups {
			changed[[2]graph.NodeID{u.From, u.To}] = true
		}

		type tally struct {
			old, new             spath.Search
			seen                 []graph.NodeID // seen[v] == source: v's path is already compared
			untouched, unchanged int
		}
		tallies := make([]tally, min(runtime.GOMAXPROCS(0), len(sources)))
		for w := range tallies {
			tallies[w] = tally{
				seen: make([]graph.NodeID, g.NumNodes()),
			}
			for v := range tallies[w].seen {
				tallies[w].seen[v] = graph.Invalid
			}
		}
		precompute.ParallelWorkers(len(sources), len(tallies), func(w, i int) {
			t, src := &tallies[w], sources[i]
			t.old.Run(g, spath.Out, src, graph.Invalid)
			t.new.Run(after, spath.Out, src, graph.Invalid)
			touched, moved := false, false
			for _, bt := range sources {
				if math.IsInf(t.old.Dist[bt], 1) {
					continue
				}
				moved = moved || t.old.Dist[bt] != t.new.Dist[bt]
				for v := bt; v != src && t.seen[v] != src; v = t.old.Parent[v] {
					t.seen[v] = src
					p := t.old.Parent[v]
					touched = touched || changed[[2]graph.NodeID{p, v}]
					moved = moved || t.new.Parent[v] != p
				}
			}
			if !touched {
				t.untouched++
			}
			if !moved {
				t.unchanged++
			}
		})
		row := IncrementalRow{Seed: seed, Sources: len(sources)}
		for _, t := range tallies {
			row.Untouched += t.untouched
			row.Unchanged += t.unchanged
		}
		rows = append(rows, row)
		cfg.printf("%-6d %10d %12d %12d\n", row.Seed, row.Sources, row.Untouched, row.Unchanged)
	}
	return rows, nil
}
