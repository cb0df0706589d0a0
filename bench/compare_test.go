package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuantilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([2, 4, 4, 5, 7, 9, 10, 12, 15, 20], n=4)
	// == [4.0, 8.0, 12.75]
	xs := []float64{2, 4, 4, 5, 7, 9, 10, 12, 15, 20}
	if q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75); q1 != 4 || q3 != 12.75 {
		t.Errorf("quartiles %v, %v; want 4, 12.75", q1, q3)
	}
	if got, want := spread(xs), (12.75-4)/8; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "query_p50_ms", Unit: "ms", Better: lower, Bound: 0.10}
	qps := metricDef{Name: "query_qps", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	noisy := []float64{8, 12, 9, 11, 10}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"single runs within bound", lat, []float64{10}, []float64{10.9}, verdictOK},
		{"single runs past bound", lat, []float64{10}, []float64{11.5}, verdictWorse},
		{"better is never worse", lat, []float64{10}, []float64{5}, verdictOK},
		{"higher-is-better falls", qps, []float64{100}, []float64{85}, verdictWorse},
		{"higher-is-better rises", qps, []float64{100}, []float64{130}, verdictOK},
		{"steady side resolves a regression", lat, steady, []float64{11.5, 11.6, 11.4, 11.5}, verdictWorse},
		{"noisy side cannot call it unchanged", lat, noisy, []float64{10, 10.2, 9.8, 10.1}, verdictUnresolved},
		{"noisy side, every run better", lat, noisy, []float64{7, 7.5, 6.9}, verdictOK},
		{"noisy side, every run far worse", lat, noisy, []float64{14, 15, 13}, verdictWorse},
	} {
		cmp := comparison{def: c.def, a: c.a, b: c.b}
		cmp.judge()
		if cmp.verdict != c.want {
			t.Errorf("%s: %s, want %s", c.name, cmp.verdict, c.want)
		}
	}
}

func TestCompareReportsFlagsRegressionsAndFailures(t *testing.T) {
	mk := func(p50 float64, failed int) []*report {
		m := metrics{}
		for _, d := range endToEndDefs {
			m.set(d.Name, 1, d.Unit)
		}
		m.set("query_p50_ms", p50, "ms")
		return []*report{{Workload: "offline_replay", Attempted: 100, Failed: failed, EndToEnd: m}}
	}
	var out bytes.Buffer
	if err := compareReports(&out, mk(1, 0), mk(1.05, 0)); err != nil {
		t.Errorf("5%% on a 25%% bound: %v\n%s", err, out.String())
	}
	out.Reset()
	if compareReports(&out, mk(1, 0), mk(1.5, 0)) == nil || !strings.Contains(out.String(), "1.500x of 1") {
		t.Errorf("50%% regression not reported with its base:\n%s", out.String())
	}
	out.Reset()
	if compareReports(&out, mk(1, 0), mk(1, 1)) == nil {
		t.Errorf("a rise in failed operations not reported:\n%s", out.String())
	}
	// Documents of another network, window or seed carry the same metric
	// names; judging them against each other would be silent nonsense.
	for name, change := range map[string]func(*report){
		"network": func(r *report) { r.Network = "germany@0.02/seed2010" },
		"seconds": func(r *report) { r.Seconds = 1 },
		"seed":    func(r *report) { r.Seed = 2 },
	} {
		other := mk(1, 0)
		change(other[0])
		out.Reset()
		if err := compareReports(&out, mk(1, 0), other); err == nil || out.Len() > 0 {
			t.Errorf("documents differing in %s compared: err %v, table:\n%s", name, err, out.String())
		}
	}
}
