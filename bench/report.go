package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is one run's JSON document: every metric by name and unit, the
// per-round sample counts, and enough of the environment to tell two
// machines apart.
type report struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Network    string  `json:"network"`
	Method     string  `json:"method"`
	Clients    int     `json:"clients"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`

	Correct   bool    `json:"correct"`
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	FailRatio float64 `json:"fail_ratio"`

	SetupRepsS []float64 `json:"setup_reps_s"`
	// StartToFirstRoundS is process start to the first measured query:
	// every set-up repetition plus, on the query workloads, one rebuild.
	StartToFirstRoundS float64  `json:"start_to_first_round_s"`
	Rounds             []*round `json:"rounds"`
	TraceFile          string   `json:"trace_file,omitempty"`

	EndToEnd metrics `json:"end_to_end,omitempty"`
	PerLayer metrics `json:"per_layer,omitempty"`
}

func newReport(o options, sp spec) *report {
	return &report{
		Workload: sp.name, Why: sp.why, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Network: fmt.Sprintf("%s@%v/seed%d", netPreset, o.scale, netSeed),
		Method:  string(sp.method), Clients: sp.clients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(),
	}
}

// gitCommit returns the revision the toolchain stamped into the binary, or
// "unknown" when it was built outside a git checkout.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// endToEnd fills the end-to-end metrics. A timing is the median of its
// per-round (or per-repetition) values; a count is taken over the first
// minRounds rounds.
func (rep *report) endToEnd(setupS, coldS, warmMs, rebuildS []float64, w *window) {
	var qps, p50, p95 []float64
	var tuning, latency, peakMem int64
	for i, r := range rep.Rounds {
		qps, p50, p95 = append(qps, r.QPS), append(p50, r.P50Ms), append(p95, r.P95Ms)
		if i < minRounds {
			tuning, latency, peakMem = tuning+r.sumTuning, latency+r.sumLatency, peakMem+r.sumPeakMem
		}
	}
	n := float64(max(w.head.answered, 1))
	m := metrics{}
	m.set("setup_s", median(setupS), "s")
	m.set("peak_rss_mb", peakRSSMB(), "MiB")
	m.set("query_qps", median(qps), "1/s")
	m.set("query_p50_ms", median(p50), "ms")
	m.set("query_p95_ms", median(p95), "ms")
	m.set("tuning_packets_mean", float64(tuning)/n, "packets")
	m.set("access_latency_packets_mean", float64(latency)/n, "packets")
	m.set("client_peak_mem_bytes_mean", float64(peakMem)/n, "bytes")
	m.set("alloc_bytes_per_query", float64(w.head.allocBytes)/n, "bytes")
	m.set("build_cold_s", median(coldS), "s")
	m.set("build_warm_ms", median(warmMs), "ms")
	m.set("rebuild_s", median(rebuildS), "s")
	rep.EndToEnd = m
}

// perLayer fills the span and counter metrics of a traced run; the
// micro-probes add theirs afterwards.
func (rep *report) perLayer(w *window, st *spanStats, sinceStart counters) {
	m := metrics{}
	m.set("session.attach_us", median(st.attachUs), "us")
	m.set("feed.wait_us", median(st.feedWaitUs), "us")
	m.set("feed.calls_per_query", mean(st.feedCalls), "calls")
	m.set("feed.wait_share", mean(st.feedShare), "ratio")
	m.set("client.self_us", median(st.clientSelfUs), "us")
	m.set("client.search_cpu_us", median(st.searchCPUUs), "us")
	m.set("verify.us", median(st.verifyUs), "us")
	var traced, untraced []float64
	for _, r := range rep.Rounds {
		if r.Traced {
			traced = append(traced, r.P50Ms)
		} else {
			untraced = append(untraced, r.P50Ms)
		}
	}
	m.set("trace.overhead_ratio", median(traced)/median(untraced), "ratio")
	w.counterMetrics(m)
	cacheMetrics(m, sinceStart)
	rep.PerLayer = m
}

// contractLine is the last line of standard output: the result object the
// benchmark driver parses.
func (rep *report) contractLine() ([]byte, error) {
	m := rep.EndToEnd
	if rep.Traced {
		m = rep.PerLayer
	}
	return json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, m})
}

// table prints the human-readable summary.
func (rep *report) table(w io.Writer) {
	fmt.Fprintf(w, "\n%s  seed %d  %s %s  %d client(s)  %d rounds  %d/%d answered\n",
		rep.Workload, rep.Seed, rep.Method, rep.Network, rep.Clients, len(rep.Rounds), rep.Attempted-rep.Failed, rep.Attempted)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, group := range []metrics{rep.EndToEnd, rep.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, group[name].Value, group[name].Unit)
		}
	}
	tw.Flush()
}
