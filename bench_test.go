package repro_test

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. The
// benches run the same harness code as cmd/airbench at a bench-friendly
// scale; `go test -bench=. -benchmem` regenerates every row/series and
// reports the headline metrics via b.ReportMetric.

import (
	"context"
	"testing"

	"repro"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/scheme"
	"repro/internal/workload"
)

func benchConfig() harness.Config {
	// NoCache: these benchmarks measure build + run cost per iteration;
	// the shared server cache would turn iterations 2..N into cache hits.
	return harness.Config{Scale: 0.05, Queries: 60, Seed: 2010, NoCache: true}
}

// BenchmarkTable1CycleBuild regenerates Table 1 (broadcast cycle lengths)
// once per iteration and reports the DJ and NR cycle lengths.
func BenchmarkTable1CycleBuild(b *testing.B) {
	var rows []harness.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Packets), r.Method+"-packets")
	}
}

// BenchmarkTable2Applicability regenerates Table 2 (per-network method
// applicability) and reports how many networks NR fits on.
func BenchmarkTable2Applicability(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 10
	feasible := 0
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		feasible = 0
		for _, r := range rows {
			if r.Feasible["NR"] {
				feasible++
			}
		}
	}
	b.ReportMetric(float64(feasible), "NR-feasible-networks")
}

// BenchmarkTable3Precompute regenerates Table 3 (server pre-computation
// time per network).
func BenchmarkTable3Precompute(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10PathLength regenerates Figure 10 (the four metrics vs.
// shortest-path length) and reports mean NR and DJ tuning.
func BenchmarkFigure10PathLength(b *testing.B) {
	var fig *harness.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = harness.Figure10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		sum, n := 0.0, 0
		for _, v := range s.Tuning {
			if v > 0 {
				sum += v
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), s.Method+"-tuning")
		}
	}
}

// BenchmarkFigure11FineTuning regenerates Figure 11 (regions/landmarks
// sweep).
func BenchmarkFigure11FineTuning(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 20
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12Networks regenerates Figure 12 (five networks).
func BenchmarkFigure12Networks(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 12
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13MemoryBound regenerates Figure 13 (memory-bound
// processing) and reports the NR memory saving in percent.
func BenchmarkFigure13MemoryBound(b *testing.B) {
	cfg := harness.Config{Scale: 0.1, Queries: 30, Seed: 2010}
	var fig *harness.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = harness.Figure13(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	vals := map[string]float64{}
	for _, s := range fig.Series {
		vals[s.Method] = s.Memory[0]
	}
	if w, wo := vals["NR (w/ precomp)"], vals["NR (w/o precomp)"]; wo > 0 {
		b.ReportMetric(100*(1-w/wo), "NR-mem-saving-%")
	}
}

// BenchmarkFigure14PacketLoss regenerates Figure 14 (loss sweep).
func BenchmarkFigure14PacketLoss(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 12
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure14(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md Section 6) ---

// ablationWorkload builds a fixed network + workload for the ablations.
func ablationWorkload(b *testing.B) (*repro.Graph, *workload.Workload) {
	b.Helper()
	g, err := repro.GeneratePreset("germany", 0.1, 2010)
	if err != nil {
		b.Fatal(err)
	}
	return g, workload.Generate(g, 40, 1, 2010)
}

func runQueries(b *testing.B, srv scheme.Server, g *repro.Graph, w *workload.Workload, loss float64) (tuning float64) {
	b.Helper()
	ch, err := broadcast.NewChannel(srv.Cycle(), loss, 7)
	if err != nil {
		b.Fatal(err)
	}
	client := srv.NewClient()
	total := 0
	for _, q := range w.Queries {
		tuner := broadcast.NewTuner(ch, q.TuneIn%srv.Cycle().Len())
		r, err := client.Query(tuner, q.Query)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Metrics.TuningPackets
	}
	return float64(total) / float64(len(w.Queries))
}

// BenchmarkAblationSegmentation measures the cross-border/local
// segmentation of Section 4.1 (the paper reports ~20% tuning-time savings).
func BenchmarkAblationSegmentation(b *testing.B) {
	g, w := ablationWorkload(b)
	var on, off float64
	for i := 0; i < b.N; i++ {
		srvOn, err := core.NewEB(g, core.Options{Regions: 16, Segments: true, SquareCells: true})
		if err != nil {
			b.Fatal(err)
		}
		srvOff, err := core.NewEB(g, core.Options{Regions: 16, Segments: false, SquareCells: true})
		if err != nil {
			b.Fatal(err)
		}
		on = runQueries(b, srvOn, g, w, 0)
		off = runQueries(b, srvOff, g, w, 0)
	}
	b.ReportMetric(on, "tuning-segmented")
	b.ReportMetric(off, "tuning-unsegmented")
	if off > 0 {
		b.ReportMetric(100*(1-on/off), "saving-%")
	}
}

// BenchmarkAblationSquarePacking measures EB's w×w square matrix packing
// against row-major runs under 5% packet loss (Section 6.2's argument).
func BenchmarkAblationSquarePacking(b *testing.B) {
	g, w := ablationWorkload(b)
	var sq, rows float64
	for i := 0; i < b.N; i++ {
		srvSq, err := core.NewEB(g, core.Options{Regions: 16, Segments: true, SquareCells: true})
		if err != nil {
			b.Fatal(err)
		}
		srvRows, err := core.NewEB(g, core.Options{Regions: 16, Segments: true, SquareCells: false})
		if err != nil {
			b.Fatal(err)
		}
		sq = runQueries(b, srvSq, g, w, 0.05)
		rows = runQueries(b, srvRows, g, w, 0.05)
	}
	b.ReportMetric(sq, "tuning-square")
	b.ReportMetric(rows, "tuning-rowmajor")
}

// BenchmarkAblationMemoryBound measures the super-edge (skeleton)
// contraction of Section 6.1: query throughput with and without.
func BenchmarkAblationMemoryBound(b *testing.B) {
	g, w := ablationWorkload(b)
	srvPlain, err := core.NewNR(g, core.Options{Regions: 16, Segments: true, SquareCells: true})
	if err != nil {
		b.Fatal(err)
	}
	srvMB, err := core.NewNR(g, core.Options{Regions: 16, Segments: true, SquareCells: true, MemoryBound: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		runQueries(b, srvPlain, g, w, 0)
		runQueries(b, srvMB, g, w, 0)
	}
}

// BenchmarkQueryNR measures raw single-query cost for NR (client side,
// lossless channel), the method the paper recommends.
func BenchmarkQueryNR(b *testing.B) {
	g, err := repro.GeneratePreset("germany", 0.1, 2010)
	if err != nil {
		b.Fatal(err)
	}
	d, err := repro.Deploy(g, repro.WithParams(repro.Params{Regions: 16}))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sess, err := d.Session(ctx, repro.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	dst := repro.NodeID(g.NumNodes() - 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Query(ctx, 11, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrecomputeEBNR measures the shared EB/NR server pre-computation
// (Table 3's dominant column).
func BenchmarkPrecomputeEBNR(b *testing.B) {
	g, err := repro.GeneratePreset("germany", 0.1, 2010)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEB(g, core.Options{Regions: 16, Segments: true, SquareCells: true}); err != nil {
			b.Fatal(err)
		}
	}
}
