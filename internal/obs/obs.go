// Package obs is the repo's dependency-free observability core: atomic
// counters, gauges and fixed-layout histograms behind a registry with
// Prometheus text-format exposition, plus a ring-buffered per-query trace
// recorder (trace.go) — the flight recorder for the broadcast path.
//
// The paper's whole argument is measurable client-side cost under loss and
// churn, so the live half of the system must not be a black box: the
// station's delivery fast path, subscriber backpressure, cycle swaps,
// cache traffic and fleet progress all register here, and cmd/airserve
// exposes the registry on its admin listener (`airserve -admin :6060`,
// scrape `/metrics`).
//
// Design constraints, in order:
//
//   - Observationally free on the answer path. Instruments never branch on
//     query content, never allocate after registration, and never touch the
//     deterministic accounting (tuning, latency, energy) — the exact packet
//     counts of harness.TestLatencyVsKGolden and the AllocsPerRun=0 pins
//     stay green with instrumentation on.
//   - Bounded cardinality. Label values are small closed sets fixed at
//     registration (a channel index, a method name) — never a subscriber,
//     query or node ID. DESIGN.md §10 records the rules per metric.
//   - No dependencies. The exposition writer implements the slice of the
//     Prometheus text format the repo needs; nothing is imported.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Kind is the instrument family of a registered metric.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and allocation-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//air:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, in-flight
// counts, the cycle version on the air).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
//
//air:noalloc
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is the concurrent form of metrics.Hist: it counts into the same
// global bucket layout, plus an exact sum and count, so a production series
// and a fleet Result (a BENCH row) are the same quantity — Snapshot returns
// the metrics.Hist, /metrics renders a fixed le view of it. Observe is
// concurrency-safe and allocation-free (one logarithm, two atomic adds, one
// CAS loop for the float sum).
type Histogram struct {
	counts  [1 + metrics.NumBuckets]atomic.Int64 // [0] is the Zero bucket, [1+i] layout bucket i
	count   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one sample.
//
//air:noalloc
func (h *Histogram) Observe(v float64) {
	h.counts[1+metrics.Bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// The le view: /metrics renders every leStep-th bucket edge of the layout
// from leFirst on — leEdges bounds a factor 1.08^18 ≈ 4 apart, from 6.0e-5
// to 2.5e5, wide enough for every unit a histogram here is fed (seconds,
// arcs, buffer slots); what lies beyond is in +Inf, _sum and _count. A
// cumulative count at a layout edge is exact, which one at a round number
// between two edges could not be; the le label prints the edge to four
// digits.
const (
	leFirst = 143
	leStep  = 18
	leEdges = 17
)

// metric is one registered series: an instrument plus its identity.
type metric struct {
	name   string
	help   string
	kind   Kind
	labels string // rendered `k="v",...` (no braces), "" when unlabeled
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// Registry holds registered metrics and renders them. Registration is
// idempotent: the same (name, labels) returns the same instrument, so
// package-level instruments and per-deployment registration compose.
type Registry struct {
	mu   sync.Mutex
	by   map[string]*metric
	list []*metric
}

// NewRegistry returns an empty registry. Most code uses the process-wide
// registry every package-level instrument registers on; tests wanting
// golden exposition build their own.
func NewRegistry() *Registry { return &Registry{by: map[string]*metric{}} }

var defaultRegistry = NewRegistry()

// renderLabels turns ("channel", "3", "method", "NR") into
// `channel="3",method="NR"`. Pairs keep their given order (cardinality is
// bounded by construction, so callers pass stable orders).
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: odd label pair count")
	}
	out := ""
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			out += ","
		}
		out += pairs[i] + "=" + strconv.Quote(pairs[i+1])
	}
	return out
}

// register returns the metric for (name, labels), creating it — instrument
// included — under r.mu. Creating the instrument inside the lock is what
// makes registration idempotent under concurrency: two goroutines racing on
// the first registration of a series get the same instrument (not two, one
// of which would silently swallow increments), and Snapshot/WriteProm can
// never observe a metric in r.list whose instrument pointer is still nil.
func (r *Registry) register(name, help string, kind Kind, labels []string) *metric {
	ls := renderLabels(labels)
	key := name + "\x00" + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.by[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: ls}
	switch kind {
	case KindCounter:
		m.ctr = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		m.hist = &Histogram{}
	}
	r.by[key] = m
	r.list = append(r.list, m)
	return m
}

// Counter registers (or returns the existing) counter under name with the
// given label pairs ("k", "v", ...).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, KindCounter, labels).ctr
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, KindGauge, labels).gauge
}

// Histogram registers (or returns the existing) histogram.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.register(name, help, KindHistogram, labels).hist
}

// Point is one series' instantaneous value: the programmatic counterpart
// of the text exposition, what Deployment.Observe and /statusz snapshot.
type Point struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`           // counter/gauge value; histogram sum
	Count  int64   `json:"count,omitempty"` // histogram observation count
}

// Snapshot returns every registered series, sorted by name then labels.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	list := append([]*metric(nil), r.list...)
	r.mu.Unlock()
	sortMetrics(list)
	out := make([]Point, 0, len(list))
	for _, m := range list {
		p := Point{Name: m.name, Labels: m.labels, Kind: m.kind.String()}
		switch m.kind {
		case KindCounter:
			p.Value = float64(m.ctr.Value())
		case KindGauge:
			p.Value = float64(m.gauge.Value())
		case KindHistogram:
			p.Value = m.hist.Sum()
			p.Count = m.hist.Count()
		}
		out = append(out, p)
	}
	return out
}

func sortMetrics(list []*metric) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].name != list[j].name {
			return list[i].name < list[j].name
		}
		return list[i].labels < list[j].labels
	})
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4), deterministically ordered: families sorted by name,
// series within a family by label string, HELP/TYPE once per family.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	list := append([]*metric(nil), r.list...)
	r.mu.Unlock()
	sortMetrics(list)
	lastFamily := ""
	for _, m := range list {
		if m.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
				return err
			}
			lastFamily = m.name
		}
		var err error
		switch m.kind {
		case KindCounter:
			err = writeSeries(w, m.name, m.labels, float64(m.ctr.Value()))
		case KindGauge:
			err = writeSeries(w, m.name, m.labels, float64(m.gauge.Value()))
		case KindHistogram:
			err = writeHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(w io.Writer, name, labels string, v float64) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
	}
	return err
}

func writeHistogram(w io.Writer, m *metric) error {
	h := m.hist
	// Observe bumps the bucket before the total (counts[i].Add, then
	// count.Add), so a concurrent scrape could see a finite bucket ahead of
	// _count. Reading the total first and clamping each cumulative bucket to
	// it keeps a single exposition internally monotonic: every finite le
	// bucket <= +Inf == _count.
	total := h.Count()
	cum, next := int64(0), 0
	for e := 0; e < leEdges; e++ {
		edge := leFirst + e*leStep
		for ; next <= edge; next++ { // counts[next] is layout bucket next-1, wholly below the edge
			cum += h.counts[next].Load()
		}
		le := `le="` + strconv.FormatFloat(metrics.BucketEdge(edge), 'g', 4, 64) + `"`
		if err := writeSeries(w, m.name+"_bucket", joinLabels(m.labels, le), float64(min(cum, total))); err != nil {
			return err
		}
	}
	if err := writeSeries(w, m.name+"_bucket", joinLabels(m.labels, `le="+Inf"`), float64(total)); err != nil {
		return err
	}
	if err := writeSeries(w, m.name+"_sum", m.labels, h.Sum()); err != nil {
		return err
	}
	return writeSeries(w, m.name+"_count", m.labels, float64(total))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatValue renders a sample the way Prometheus clients do: shortest
// round-trip representation, integers without a trailing ".0".
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry's text exposition:
// mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}

// Package-level conveniences over the Default registry.

// GetCounter registers (or fetches) a counter on the default registry.
func GetCounter(name, help string, labels ...string) *Counter {
	return defaultRegistry.Counter(name, help, labels...)
}

// GetGauge registers (or fetches) a gauge on the default registry.
func GetGauge(name, help string, labels ...string) *Gauge {
	return defaultRegistry.Gauge(name, help, labels...)
}

// GetHistogram registers (or fetches) a histogram on the default registry.
func GetHistogram(name, help string, labels ...string) *Histogram {
	return defaultRegistry.Histogram(name, help, labels...)
}

// Snapshot returns the default registry's current series.
func Snapshot() []Point { return defaultRegistry.Snapshot() }

// WriteProm renders the default registry in Prometheus text format.
func WriteProm(w io.Writer) error { return defaultRegistry.WriteProm(w) }

// Handler serves the default registry's /metrics.
func Handler() http.Handler { return defaultRegistry.Handler() }
