package harness

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// FigureSeries is one method's series over an x-axis (buckets, settings,
// networks, or loss rates).
type FigureSeries struct {
	Method  string
	Tuning  []float64 // packets
	Memory  []float64 // MB
	Latency []float64 // packets
	CPU     []float64 // ms
}

// Figure is a full figure: x-axis labels plus one series per method.
type Figure struct {
	Title  string
	XLabel string
	X      []string
	Series []FigureSeries
}

func (f *Figure) print(cfg Config) {
	cfg.printf("%s\n", f.Title)
	for _, metric := range []struct {
		name string
		get  func(FigureSeries) []float64
	}{
		{"tuning (packets)", func(s FigureSeries) []float64 { return s.Tuning }},
		{"memory (MB)", func(s FigureSeries) []float64 { return s.Memory }},
		{"latency (packets)", func(s FigureSeries) []float64 { return s.Latency }},
		{"cpu (ms)", func(s FigureSeries) []float64 { return s.CPU }},
	} {
		cfg.printf("  [%s]\n", metric.name)
		cfg.printf("  %-8s", f.XLabel)
		for _, x := range f.X {
			cfg.printf(" %12s", x)
		}
		cfg.printf("\n")
		for _, s := range f.Series {
			vals := metric.get(s)
			if vals == nil {
				continue
			}
			cfg.printf("  %-8s", s.Method)
			for _, v := range vals {
				cfg.printf(" %12.3f", v)
			}
			cfg.printf("\n")
		}
	}
}

func seriesFromAggs(name string, aggs []metrics.Agg) FigureSeries {
	s := FigureSeries{Method: name}
	for _, a := range aggs {
		s.Tuning = append(s.Tuning, a.MeanTuning())
		s.Memory = append(s.Memory, a.MeanPeakMem()*metrics.J2MEOverheadFactor/(1<<20))
		s.Latency = append(s.Latency, a.MeanLatency())
		s.CPU = append(s.CPU, float64(a.MeanCPU())/float64(time.Millisecond))
	}
	return s
}

// Figure10 reproduces the paper's Figure 10: tuning time, memory, access
// latency and CPU time versus shortest-path length on the default network.
func Figure10(cfg Config) (*Figure, error) {
	cfg = cfg.Defaults()
	g, p, err := cfg.network(cfg.Preset)
	if err != nil {
		return nil, err
	}
	servers, err := cfg.servers(g, p.Name, ComparableOrder)
	if err != nil {
		return nil, err
	}
	w := workload.Generate(g, cfg.Queries, servers["DJ"].Cycle().Len(), cfg.Seed+1)

	fig := &Figure{
		Title:  "Figure 10 — effect of shortest-path length (" + p.Name + ")",
		XLabel: "SPrange",
	}
	for b := 0; b < workload.Buckets; b++ {
		r := w.BucketLabel(b)
		fig.X = append(fig.X, fmt.Sprintf("%.1fk-%.1fk", r[0]/1000, r[1]/1000))
	}
	for _, name := range ComparableOrder {
		mr, err := runWorkload(servers[name], w, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, seriesFromAggs(name, mr.PerBucket[:]))
	}
	fig.print(cfg)
	return fig, nil
}

// Figure11 reproduces Figure 11 (Appendix C.1): fine-tuning the number of
// regions (EB, NR, ArcFlag) and landmarks (Landmark). The x-axis pairs
// 16/2, 32/4, 64/8, 128/16 as in the paper; ArcFlag appears only at 16
// regions (beyond that its client exceeds the heap).
func Figure11(cfg Config) (*Figure, error) {
	cfg = cfg.Defaults()
	g, p, err := cfg.network(cfg.Preset)
	if err != nil {
		return nil, err
	}
	regionSteps := []int{16, 32, 64, 128}
	markSteps := []int{2, 4, 8, 16}

	fig := &Figure{
		Title:  "Figure 11 — fine-tuning (" + p.Name + ")",
		XLabel: "reg/lm",
		X:      []string{"16/2", "32/4", "64/8", "128/16"},
	}

	dj, err := cfg.server(g, p.Name, build.DJ, build.Params{}, nil)
	if err != nil {
		return nil, err
	}
	w := workload.Generate(g, cfg.Queries, dj.Cycle().Len(), cfg.Seed+2)

	var ebAggs, nrAggs, ldAggs, afAggs, djAggs []metrics.Agg
	for i, regions := range regionSteps {
		var prev scheme.Server
		for _, step := range []struct {
			m    build.Method
			p    build.Params
			aggs *[]metrics.Agg
		}{
			{build.EB, build.Params{Regions: regions}, &ebAggs},
			{build.NR, build.Params{Regions: regions}, &nrAggs},
			{build.LD, build.Params{Landmarks: markSteps[i]}, &ldAggs},
			{build.AF, build.Params{Regions: regions}, &afAggs},
		} {
			if step.m == build.AF && regions != 16 {
				continue
			}
			srv, err := cfg.server(g, p.Name, step.m, step.p, prev)
			if err != nil {
				return nil, err
			}
			prev = srv
			mr, err := runWorkload(srv, w, 0, cfg.Seed)
			if err != nil {
				return nil, err
			}
			*step.aggs = append(*step.aggs, mr.Agg)
		}
		mr, err := runWorkload(dj, w, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		djAggs = append(djAggs, mr.Agg)
	}
	fig.Series = append(fig.Series,
		seriesFromAggs("NR", nrAggs),
		seriesFromAggs("EB", ebAggs),
		seriesFromAggs("DJ", djAggs),
		seriesFromAggs("LD", ldAggs),
		seriesFromAggs("AF", afAggs),
	)
	fig.print(cfg)
	return fig, nil
}

// Figure12 reproduces Figure 12 (Appendix C.3): the four metrics across the
// five networks. Methods whose (inflated) peak memory exceeds the heap
// budget are omitted for that network, mirroring the paper's missing bars.
func Figure12(cfg Config) (*Figure, error) {
	cfg = cfg.Defaults()
	budget := cfg.heapBudget()
	fig := &Figure{Title: "Figure 12 — different networks", XLabel: "network"}
	perMethod := map[string][]metrics.Agg{}
	feasible := map[string][]bool{}
	for _, preset := range netgen.Presets {
		g, p, err := cfg.network(preset.Name)
		if err != nil {
			return nil, err
		}
		fig.X = append(fig.X, p.Name)
		servers, err := cfg.servers(g, p.Name, ComparableOrder)
		if err != nil {
			return nil, err
		}
		w := workload.Generate(g, min(cfg.Queries, 100), servers["DJ"].Cycle().Len(), cfg.Seed+3)
		// Feasibility uses the same sample size as Table 2, so the two
		// views of the heap frontier agree.
		wFeas := workload.Generate(g, min(cfg.Queries, 30), servers["DJ"].Cycle().Len(), cfg.Seed+7)
		for _, name := range ComparableOrder {
			mr, err := runWorkload(servers[name], w, 0, cfg.Seed)
			if err != nil {
				return nil, err
			}
			perMethod[name] = append(perMethod[name], mr.Agg)
			fr, err := runWorkload(servers[name], wFeas, 0, cfg.Seed)
			if err != nil {
				return nil, err
			}
			ok := float64(fr.Agg.MaxPeakMem)*metrics.J2MEOverheadFactor <= budget
			feasible[name] = append(feasible[name], ok)
		}
	}
	for _, name := range ComparableOrder {
		s := seriesFromAggs(name, perMethod[name])
		// Zero out infeasible networks (missing bars in the paper).
		for i, ok := range feasible[name] {
			if !ok {
				s.Tuning[i], s.Memory[i], s.Latency[i], s.CPU[i] = 0, 0, 0, 0
			}
		}
		fig.Series = append(fig.Series, s)
	}
	fig.print(cfg)
	return fig, nil
}

// Figure13 reproduces Figure 13 (Appendix C.4): peak memory and CPU time of
// EB and NR with and without the client-side super-edge pre-computation of
// Section 6.1.
func Figure13(cfg Config) (*Figure, error) {
	cfg = cfg.Defaults()
	g, p, err := cfg.network(cfg.Preset)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Title:  "Figure 13 — client-side pre-computation scheme (" + p.Name + ")",
		XLabel: "variant",
		X:      []string{"value"},
	}
	dj, err := cfg.server(g, p.Name, build.DJ, build.Params{}, nil)
	if err != nil {
		return nil, err
	}
	w := workload.Generate(g, min(cfg.Queries, 150), dj.Cycle().Len(), cfg.Seed+4)
	params := cfg.params(g, build.NR)
	var srv scheme.Server
	for _, variant := range []struct {
		label string
		m     build.Method
		mb    bool
	}{
		{"NR (w/ precomp)", build.NR, true},
		{"NR (w/o precomp)", build.NR, false},
		{"EB (w/ precomp)", build.EB, true},
		{"EB (w/o precomp)", build.EB, false},
	} {
		// The four variants differ in assembly and client only: one
		// pre-computation serves them all.
		params.MemoryBound = variant.mb
		srv, err = cfg.server(g, p.Name, variant.m, params, srv)
		if err != nil {
			return nil, err
		}
		mr, err := runWorkload(srv, w, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, seriesFromAggs(variant.label, []metrics.Agg{mr.Agg}))
	}
	fig.print(cfg)
	return fig, nil
}

// Figure14 reproduces Figure 14 (Appendix C.5): tuning time and access
// latency under packet loss rates from 0.1% to 10%.
func Figure14(cfg Config) (*Figure, error) {
	cfg = cfg.Defaults()
	g, p, err := cfg.network(cfg.Preset)
	if err != nil {
		return nil, err
	}
	servers, err := cfg.servers(g, p.Name, ComparableOrder)
	if err != nil {
		return nil, err
	}
	rates := []float64{0.001, 0.005, 0.01, 0.05, 0.10}
	fig := &Figure{
		Title:  "Figure 14 — effect of packet loss (" + p.Name + ")",
		XLabel: "loss",
		X:      []string{"0.1%", "0.5%", "1%", "5%", "10%"},
	}
	w := workload.Generate(g, min(cfg.Queries, 150), servers["DJ"].Cycle().Len(), cfg.Seed+5)
	for _, name := range ComparableOrder {
		var aggs []metrics.Agg
		for _, rate := range rates {
			mr, err := runWorkload(servers[name], w, rate, cfg.Seed+int64(rate*10000))
			if err != nil {
				return nil, err
			}
			aggs = append(aggs, mr.Agg)
		}
		s := seriesFromAggs(name, aggs)
		s.Memory, s.CPU = nil, nil // the paper plots only tuning and latency
		fig.Series = append(fig.Series, s)
	}
	fig.print(cfg)
	return fig, nil
}
