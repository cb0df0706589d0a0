// Command airbench regenerates the paper's tables and figures, and emits
// the repo's performance baseline.
//
// Usage:
//
//	airbench -exp table1            # one experiment
//	airbench -exp all               # everything
//	airbench -exp fig10 -scale 0.2 -queries 400 -preset germany
//	airbench -exp bench -benchout BENCH_baseline.json
//	airbench -exp compare -tolerance 0.25   # regression gate vs baseline
//	airbench -exp churn                     # dynamic-network update scenario
//	airbench -exp incremental -scale 1.0    # what a source-granular rebuild could skip
//	airbench -exp all -cpuprofile cpu.prof -memprofile mem.prof
//
// Experiments: table1 table2 table3 fig10 fig11 fig12 fig13 fig14 bench
// compare churn incremental all. The -scale flag shrinks the synthetic
// networks (1.0 = paper-sized); the heap budget of Table 2 scales along, so
// the feasibility frontier keeps its shape. See EXPERIMENTS.md for recorded outputs and the
// comparison against the paper.
//
// `bench` runs the benchstat-able micro benchmarks (tuner hop, station
// broadcast, fleet QPS) plus the deterministic latency-vs-K sweep and, with
// -benchout, writes them as JSON — the committed BENCH_baseline.json future
// PRs compare against. It is explicit-only: `-exp all` covers the paper's
// tables and figures, not the baseline emitter.
//
// `churn` runs the dynamic-network scenario: a live NR broadcast whose arc
// weights mutate while a fleet answers queries, swept over update
// intervals; it reports the staleness window (queries forced to re-enter)
// and the latency overhead versus version-clean queries, failing if any
// answer missed the post-update Dijkstra reference. Like `bench` it is
// explicit-only.
//
// `incremental` (explicit-only) sizes source-granular incremental
// re-computation of the border pre-computation: per seeded 25-arc traffic
// batch, how many border sources a weight-only rebuild could copy instead
// of re-running (EXPERIMENTS.md records the negative result).
//
// `compare` reruns the bench suite at the committed baseline's parameters
// and fails (exit 1) when a metric regresses beyond -tolerance.
// Deterministic packet-count metrics (latency-vs-K rows, hops/query)
// always gate, two-sided — drift means behavior changed. Timing metrics
// (ns/op, queries/sec) are reported always but gate only with
// -gate-timing, because a committed ns/op number is only comparable on
// the machine that recorded it; CI (arbitrary hardware) runs the smoke
// gate without it.
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiments — the escape hatch for digging into a regression the compare
// gate flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/harness"
)

// benchBaseline is the BENCH_baseline.json schema.
type benchBaseline struct {
	GeneratedBy string                  `json:"generated_by"`
	Go          string                  `json:"go"`
	Scale       float64                 `json:"scale"`
	Queries     int                     `json:"queries"`
	Seed        int64                   `json:"seed"`
	Micro       []microBench            `json:"micro"`
	LatencyVsK  []harness.LatencyVsKRow `json:"latency_vs_k"`
}

type microBench struct {
	Name    string             `json:"name"`
	Iters   int                `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchSuite executes the baseline suite and returns it.
func benchSuite(cfg harness.Config) (benchBaseline, error) {
	// testing.Benchmark outside `go test` needs the testing flag set
	// registered, or a failing bench body crashes in the logger.
	testing.Init()
	base := benchBaseline{
		GeneratedBy: "cmd/airbench -exp bench",
		Go:          runtime.Version(),
		Scale:       cfg.Scale,
		Queries:     cfg.Queries,
		Seed:        cfg.Seed,
	}
	micro := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"TunerHop", harness.BenchTunerHop},
		{"StationBroadcast", harness.BenchStationBroadcast},
		{"LiveQuery", harness.BenchLiveQuery},
		{"WireQuery", harness.BenchWireQuery},
		{"FleetQPS", harness.BenchFleetQPS},
	}
	for _, m := range micro {
		r := testing.Benchmark(m.fn)
		if r.N == 0 {
			// testing.Benchmark reports failure as a zero result; a zeroed
			// baseline must never be committed.
			return base, fmt.Errorf("benchmark %s failed", m.name)
		}
		mb := microBench{Name: m.name, Iters: r.N, NsPerOp: float64(r.NsPerOp())}
		if len(r.Extra) > 0 {
			mb.Metrics = map[string]float64{}
			for k, v := range r.Extra {
				mb.Metrics[k] = v
			}
		}
		base.Micro = append(base.Micro, mb)
		fmt.Fprintf(cfg.Out, "Benchmark%-18s %10d iters %12.0f ns/op %v\n", m.name, r.N, float64(r.NsPerOp()), r.Extra)
	}
	rows, err := harness.LatencyVsK(cfg)
	if err != nil {
		return base, err
	}
	base.LatencyVsK = rows
	fmt.Fprintf(cfg.Out, "\n%-14s %-6s %6s %4s %14s %14s %8s\n",
		"network", "method", "loss", "K", "mean latency", "mean tuning", "vs K=1")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-14s %-6s %6.2f %4d %14.0f %14.0f %8.2f\n",
			r.Network, r.Method, r.Loss, r.K, r.MeanLatency, r.MeanTuning, r.VsK1)
	}
	return base, nil
}

// runBench executes the baseline suite and renders/records it.
func runBench(cfg harness.Config, benchout string) error {
	base, err := benchSuite(cfg)
	if err != nil {
		return err
	}
	if benchout == "" {
		return nil
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchout, append(data, '\n'), 0o644)
}

// runCompare reruns the bench suite at the committed baseline's parameters
// and diffs the two runs. Deterministic packet-count metrics (mean
// latency/tuning of the offline latency-vs-K sweep, hops/query) always
// gate, two-sided: any drift beyond the tolerance means behavior changed,
// which a perf PR must not do, and they mean the same thing on any
// hardware. Timing metrics (ns/op, queries/sec) are always reported but
// fail the run only when gateTiming is set — a committed ns/op baseline is
// only comparable on the machine that recorded it, so CI (different and
// noisy hardware) runs without -gate-timing while a developer re-checking
// a perf claim on the baseline box runs with it. Timing gates are
// one-sided: slower fails, faster passes.
func runCompare(cfg harness.Config, baselinePath string, tolerance float64, gateTiming bool) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	// Compare at exactly the baseline's parameters, whatever flags say.
	cfg.Scale, cfg.Queries, cfg.Seed = base.Scale, base.Queries, base.Seed
	fresh, err := benchSuite(cfg)
	if err != nil {
		return err
	}

	var failures []string
	// kind: "det" gates always (two-sided), "timing" gates only with
	// -gate-timing (one-sided; higherIsBetter flips the direction).
	check := func(name string, baseV, freshV float64, higherIsBetter bool, kind string) {
		if baseV == 0 {
			return
		}
		ratio := freshV / baseV
		verdict := "ok"
		switch {
		case kind == "det" && (ratio > 1+tolerance || ratio < 1-tolerance):
			verdict = "DRIFT"
		case kind == "timing" && higherIsBetter && ratio < 1-tolerance:
			verdict = "REGRESSION"
		case kind == "timing" && !higherIsBetter && ratio > 1+tolerance:
			verdict = "REGRESSION"
		}
		gated := kind == "det" || gateTiming
		if verdict != "ok" && !gated {
			verdict += " (not gated; rerun with -gate-timing on the baseline machine)"
		}
		fmt.Fprintf(cfg.Out, "%-40s %14.1f -> %14.1f  (%5.2fx)  %s\n", name, baseV, freshV, ratio, verdict)
		if verdict != "ok" && gated {
			failures = append(failures, fmt.Sprintf("%s: %s %.1f -> %.1f (%.2fx, tolerance %.0f%%)",
				name, verdict, baseV, freshV, ratio, tolerance*100))
		}
	}

	fmt.Fprintf(cfg.Out, "\n%-40s %14s    %14s\n", "metric", "baseline", "fresh")
	freshMicro := map[string]microBench{}
	for _, m := range fresh.Micro {
		freshMicro[m.Name] = m
	}
	for _, bm := range base.Micro {
		fm, ok := freshMicro[bm.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("benchmark %s missing from fresh run", bm.Name))
			continue
		}
		check(bm.Name+" ns/op", bm.NsPerOp, fm.NsPerOp, false, "timing")
		for k, v := range bm.Metrics {
			kind := "timing"
			if k == "hops/query" { // reception order is deterministic
				kind = "det"
			}
			check(bm.Name+" "+k, v, fm.Metrics[k], k == "queries/sec", kind)
		}
	}
	freshRows := map[string]harness.LatencyVsKRow{}
	for _, r := range fresh.LatencyVsK {
		freshRows[fmt.Sprintf("%s/%s/%d", r.Network, r.Method, r.K)] = r
	}
	for _, r := range base.LatencyVsK {
		key := fmt.Sprintf("%s/%s/%d", r.Network, r.Method, r.K)
		fr, ok := freshRows[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("latency-vs-K row %s missing from fresh run", key))
			continue
		}
		check(key+" latency", r.MeanLatency, fr.MeanLatency, false, "det")
		check(key+" tuning", r.MeanTuning, fr.MeanTuning, false, "det")
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "airbench compare: %s\n", f)
		}
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%% of %s", len(failures), tolerance*100, baselinePath)
	}
	fmt.Fprintf(cfg.Out, "\ncompare: all metrics within %.0f%% of %s\n", tolerance*100, baselinePath)
	return nil
}

func main() {
	os.Exit(realMain())
}

// realMain carries the program body so deferred profile writers run before
// the process exits with a status code.
func realMain() int {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|table2|table3|fig10|fig11|fig12|fig13|fig14|bench|compare|churn|incremental|all")
		preset     = flag.String("preset", "germany", "network preset (milan|germany|argentina|india|sanfrancisco|continent)")
		scale      = flag.Float64("scale", 0.05, "network scale factor (1.0 = paper-sized)")
		queries    = flag.Int("queries", 400, "queries per experiment")
		seed       = flag.Int64("seed", 2010, "random seed")
		regions    = flag.Int("regions", 0, "EB/NR regions (0 = auto-tuned per network)")
		benchout   = flag.String("benchout", "", "write the bench baseline as JSON to this file (with -exp bench)")
		baseline   = flag.String("baseline", "BENCH_baseline.json", "committed baseline to diff against (with -exp compare)")
		tolerance  = flag.Float64("tolerance", 0.25, "allowed relative regression vs the baseline (with -exp compare)")
		gateTiming = flag.Bool("gate-timing", false, "also fail on ns/op and queries/sec regressions — only meaningful on the machine that recorded the baseline (with -exp compare)")
		cpuprof    = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memprof    = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
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
		"bench":       func(c harness.Config) error { return runBench(c, *benchout) },
		"compare":     func(c harness.Config) error { return runCompare(c, *baseline, *tolerance, *gateTiming) },
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
