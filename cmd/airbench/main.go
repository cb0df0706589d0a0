// Command airbench regenerates the paper's tables and figures and the
// repo's own deterministic experiment tables.
//
// Usage:
//
//	airbench -exp table1            # one experiment
//	airbench -exp all               # everything
//	airbench -exp fig10 -scale 0.2 -queries 400 -preset germany
//	airbench -exp latencyk -queries 30      # latency vs K, EXPERIMENTS.md's table
//	airbench -exp churn                     # dynamic-network update scenario
//	airbench -exp incremental -scale 1.0    # what a source-granular rebuild could skip
//	airbench -exp all -cpuprofile cpu.prof -memprofile mem.prof
//
// Experiments: table1 table2 table3 fig10 fig11 fig12 fig13 fig14 latencyk
// churn incremental all. The -scale flag shrinks the synthetic networks
// (1.0 = paper-sized); the heap budget of Table 2 scales along, so the
// feasibility frontier keeps its shape. See EXPERIMENTS.md for recorded outputs and the
// comparison against the paper.
//
// `latencyk` (explicit-only: `-exp all` covers the paper's tables and
// figures) sweeps K in {1,2,4} channels with NR at 15% loss over the five
// networks, offline and deterministic; at -scale 0.05 -queries 30 -seed 2010
// it prints the rows internal/harness's TestLatencyVsKGolden pins.
//
// `churn` runs the dynamic-network scenario: a live NR broadcast whose arc
// weights mutate while a fleet answers queries, swept over update
// intervals; it reports the staleness window (queries forced to re-enter)
// and the latency overhead versus version-clean queries, failing if any
// answer missed the post-update Dijkstra reference. Like `latencyk` it is
// explicit-only.
//
// `incremental` (explicit-only) sizes source-granular incremental
// re-computation of the border pre-computation: per seeded 25-arc traffic
// batch, how many border sources a weight-only rebuild could copy instead
// of re-running (EXPERIMENTS.md records the negative result).
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/harness"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the program body so deferred profile writers run before
// the process exits with a status code.
func realMain() int {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|table2|table3|fig10|fig11|fig12|fig13|fig14|latencyk|churn|incremental|all")
		preset  = flag.String("preset", "germany", "network preset (milan|germany|argentina|india|sanfrancisco|continent)")
		scale   = flag.Float64("scale", 0.05, "network scale factor (1.0 = paper-sized)")
		queries = flag.Int("queries", 400, "queries per experiment")
		seed    = flag.Int64("seed", 2010, "random seed")
		regions = flag.Int("regions", 0, "EB/NR regions (0 = auto-tuned per network)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memprof = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "airbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "airbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "airbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "airbench: -memprofile: %v\n", err)
			}
		}()
	}

	cfg := harness.Config{
		Preset:  *preset,
		Scale:   *scale,
		Queries: *queries,
		Seed:    *seed,
		Regions: *regions,
		Out:     os.Stdout,
	}

	runners := map[string]func(harness.Config) error{
		"table1":      func(c harness.Config) error { _, err := harness.Table1(c); return err },
		"table2":      func(c harness.Config) error { _, err := harness.Table2(c); return err },
		"table3":      func(c harness.Config) error { _, err := harness.Table3(c); return err },
		"fig10":       func(c harness.Config) error { _, err := harness.Figure10(c); return err },
		"fig11":       func(c harness.Config) error { _, err := harness.Figure11(c); return err },
		"fig12":       func(c harness.Config) error { _, err := harness.Figure12(c); return err },
		"fig13":       func(c harness.Config) error { _, err := harness.Figure13(c); return err },
		"fig14":       func(c harness.Config) error { _, err := harness.Figure14(c); return err },
		"latencyk":    func(c harness.Config) error { _, err := harness.LatencyVsK(c); return err },
		"churn":       func(c harness.Config) error { _, err := harness.Churn(c); return err },
		"incremental": func(c harness.Config) error { _, err := harness.Incremental(c); return err },
	}
	order := []string{"table1", "table2", "table3", "fig10", "fig11", "fig12", "fig13", "fig14"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, e := range strings.Split(*exp, ",") {
			if _, ok := runners[e]; !ok {
				fmt.Fprintf(os.Stderr, "airbench: unknown experiment %q\n", e)
				return 2
			}
			selected = append(selected, e)
		}
	}
	failed := false
	for _, e := range selected {
		if err := runners[e](cfg); err != nil {
			fmt.Fprintf(os.Stderr, "airbench: %s: %v\n", e, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		return 1
	}
	return 0
}
