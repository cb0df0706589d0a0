package main

import (
	"encoding/json"
	"io"
)

// defaultSeconds is the measured window the driver asks for
// (BENCHMARK.json run_seconds).
const defaultSeconds = 12

// metricDef declares one metric: BENCHMARK.json is derived from these
// tables (-manifest), -compare reads its bounds from them, and
// catalogue_test.go pins that a run emits exactly these names.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are what a user of the system sees: a device's query, in
// wall time and in the paper's currency, and an operator's builds. The
// bounds come from measured repeatability (README.md): counts repeat to
// 1-2% across seeds and get three times that; wall-clock timings on a
// shared 2-vCPU host drift by 5-15% over minutes whatever the program
// does, so they get the largest bound the driver allows. The paper's CPU
// factor (Metrics.CPU) is not here: it is wall time inside the client's
// compute sections, and on wire_loopback whole runs sit up to 34% apart
// (spread up to 20%). It is per-layer only, as client.search_cpu_us.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
	{"query_qps", "1/s", higher, 0.25},
	{"query_p50_ms", "ms", lower, 0.25},
	{"query_p95_ms", "ms", lower, 0.25},
	{"tuning_packets_mean", "packets", lower, 0.06},
	{"access_latency_packets_mean", "packets", lower, 0.05},
	{"client_peak_mem_bytes_mean", "bytes", lower, 0.06},
	{"alloc_bytes_per_query", "bytes", lower, 0.05},
	{"build_cold_s", "s", lower, 0.25},
	{"build_warm_ms", "ms", lower, 0.20},
	{"rebuild_s", "s", lower, 0.25},
}

// perLayerDefs are the metrics of single layers, reported by a traced run.
// They carry no bound.
var perLayerDefs = []metricDef{
	// Spans recorded around the calls the traced round makes.
	{Name: "session.attach_us", Unit: "us", Better: lower},
	{Name: "feed.wait_us", Unit: "us", Better: lower},
	{Name: "feed.calls_per_query", Unit: "calls", Better: lower},
	{Name: "feed.wait_share", Unit: "ratio", Better: lower},
	{Name: "client.self_us", Unit: "us", Better: lower},
	{Name: "client.search_cpu_us", Unit: "us", Better: lower},
	{Name: "verify.us", Unit: "us", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	// Counts from the obs registry over the measured window.
	{Name: "station.packets_per_query", Unit: "packets", Better: lower},
	{Name: "station.delivery_ratio", Unit: "ratio", Better: higher},
	{Name: "station.dropped_packets", Unit: "count", Better: lower},
	{Name: "station.swaps", Unit: "count", Better: higher},
	{Name: "multichannel.hops_per_query", Unit: "hops", Better: lower},
	{Name: "wire.datagrams_sent_per_query", Unit: "datagrams", Better: lower},
	{Name: "wire.datagrams_received_per_query", Unit: "datagrams", Better: lower},
	{Name: "wire.gap_packets", Unit: "count", Better: lower},
	{Name: "wire.corrupt_frames", Unit: "count", Better: lower},
	{Name: "wire.redials", Unit: "count", Better: lower},
	{Name: "servercache.hits", Unit: "count", Better: higher},
	{Name: "servercache.misses", Unit: "count", Better: lower},
	{Name: "diskcache.hits", Unit: "count", Better: higher},
	{Name: "diskcache.misses", Unit: "count", Better: lower},
	{Name: "diskcache.put_bytes", Unit: "bytes", Better: lower},
	{Name: "update.rebuilds", Unit: "count", Better: higher},
	{Name: "deploy.degraded", Unit: "count", Better: lower},
	{Name: "deploy.refused", Unit: "count", Better: lower},
	{Name: "proc.mallocs_per_query", Unit: "allocs", Better: lower},
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   append(append([]metricDef(nil), perLayerDefs...), probeDefs...),
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
