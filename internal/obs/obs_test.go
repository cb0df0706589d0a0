package obs

import (
	"bufio"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// checks the total is exact (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestGaugeConcurrent checks paired Add(+1)/Add(-1) from many goroutines
// nets to zero.
func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "test gauge")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

// TestHistogramConcurrent checks count, sum and bucket totals are exact
// under concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "test histogram")
	const workers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 200)) // the Zero bucket and 5 octaves of the layout
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	wantSum := 0.0
	for i := 0; i < per; i++ {
		wantSum += float64(i % 200)
	}
	wantSum *= workers
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %g, want %g", got, wantSum)
	}
	var bucketTotal int64
	for i := range h.counts {
		bucketTotal += h.counts[i].Load()
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
}

// TestRegistrationIdempotent checks the same (name, labels) returns the
// same instrument, and different labels return different ones.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", "channel", "0")
	b := r.Counter("x_total", "x", "channel", "0")
	c := r.Counter("x_total", "x", "channel", "1")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
	if r.Histogram("hh", "h") != r.Histogram("hh", "h") {
		t.Fatal("histogram re-registration returned a distinct instrument")
	}
}

// TestConcurrentFirstRegistration races many goroutines on the FIRST
// registration of the same series — the pattern Rx.Close() hits when
// parallel fleet workers flush per-channel counters — while a scraper
// renders the registry. Every goroutine must get the same instrument (no
// increment may be lost to a privately allocated duplicate) and the
// scraper must never observe a metric without its instrument. Run under
// -race in CI.
func TestConcurrentFirstRegistration(t *testing.T) {
	r := NewRegistry()
	const workers, series = 16, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < series; s++ {
				r.Counter("race_total", "first-registration race", "channel", string(rune('0'+s))).Inc()
				r.Gauge("race_gauge", "gauge race", "channel", string(rune('0'+s))).Inc()
				r.Histogram("race_hist", "hist race", "channel", string(rune('0'+s))).Observe(float64(w))
			}
		}(w)
	}
	// Concurrent scrapes: must never panic on a nil instrument.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WriteProm(&sb); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
			r.Snapshot()
		}
	}()
	wg.Wait()
	for s := 0; s < series; s++ {
		lbl := string(rune('0' + s))
		if got := r.Counter("race_total", "first-registration race", "channel", lbl).Value(); got != workers {
			t.Errorf("series %d: counter = %d, want %d (increments lost to a duplicate instrument)", s, got, workers)
		}
		if got := r.Histogram("race_hist", "hist race", "channel", lbl).Count(); got != workers {
			t.Errorf("series %d: histogram count = %d, want %d", s, got, workers)
		}
	}
}

// TestKindMismatchPanics pins that re-registering a name as another kind
// is a loud programming error, not silent aliasing.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("m", "m")
}

// TestExpositionGolden pins the exact Prometheus text rendering: families
// sorted by name, HELP/TYPE once per family, labeled series sorted within
// it, histograms as the fixed le view of the metrics.Hist layout (17
// cumulative edges a factor ≈ 4 apart), +Inf, _sum and _count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "sorts last").Add(7)
	r.Counter("aa_packets_total", "per-channel packets", "channel", "1").Add(3)
	r.Counter("aa_packets_total", "per-channel packets", "channel", "0").Add(2)
	r.Gauge("mm_subscribers", "current subscribers").Set(5)
	h := r.Histogram("mm_depth", "buffer depth")
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)
	h.Observe(1e6) // past the last edge: only +Inf, _sum and _count see it
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_packets_total per-channel packets
# TYPE aa_packets_total counter
aa_packets_total{channel="0"} 2
aa_packets_total{channel="1"} 3
# HELP mm_depth buffer depth
# TYPE mm_depth histogram
mm_depth_bucket{le="6.02e-05"} 1
mm_depth_bucket{le="0.0002406"} 1
mm_depth_bucket{le="0.0009613"} 1
mm_depth_bucket{le="0.003841"} 1
mm_depth_bucket{le="0.01535"} 1
mm_depth_bucket{le="0.06134"} 1
mm_depth_bucket{le="0.2451"} 1
mm_depth_bucket{le="0.9795"} 1
mm_depth_bucket{le="3.914"} 3
mm_depth_bucket{le="15.64"} 3
mm_depth_bucket{le="62.5"} 3
mm_depth_bucket{le="249.7"} 4
mm_depth_bucket{le="998"} 4
mm_depth_bucket{le="3988"} 4
mm_depth_bucket{le="1.594e+04"} 4
mm_depth_bucket{le="6.368e+04"} 4
mm_depth_bucket{le="2.545e+05"} 4
mm_depth_bucket{le="+Inf"} 5
mm_depth_sum 1000106
mm_depth_count 5
# HELP mm_subscribers current subscribers
# TYPE mm_subscribers gauge
mm_subscribers 5
# HELP zz_last_total sorts last
# TYPE zz_last_total counter
zz_last_total 7
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramIsTheHistLayout pins "one layout": a Histogram and a
// metrics.Hist fed the same samples are the same distribution — equal
// counts, equal quantiles, equal sum — and every le bucket of the exposition
// is the Hist's cumulative count below that layout edge.
func TestHistogramIsTheHistLayout(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "wall time")
	var ref metrics.Hist
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		v := math.Exp(rng.NormFloat64()*3 - 2) // 1e-6 .. 1e3, most of the le view
		if i%97 == 0 {
			v = 0
		}
		h.Observe(v)
		ref.Add(v)
	}
	got := h.Snapshot()
	if got.N() != ref.N() || got.Zero != ref.Zero || got.Low != ref.Low || len(got.Counts) != len(ref.Counts) || got.Sum != ref.Sum {
		t.Fatalf("snapshot %d samples (zero %d, low %d, %d buckets, sum %v), Hist %d (zero %d, low %d, %d buckets, sum %v)",
			got.N(), got.Zero, got.Low, len(got.Counts), got.Sum, ref.N(), ref.Zero, ref.Low, len(ref.Counts), ref.Sum)
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got.Quantile(p) != ref.Quantile(p) {
			t.Errorf("p%v: snapshot %v, Hist %v", p, got.Quantile(p), ref.Quantile(p))
		}
	}
	if h.Count() != ref.N() || h.Sum() != ref.Sum {
		t.Errorf("_count %d _sum %v, Hist %d / %v", h.Count(), h.Sum(), ref.N(), ref.Sum)
	}
	for e, cum := range scrapeBuckets(t, r, "q_seconds") {
		if e == leEdges {
			if cum != ref.N() {
				t.Errorf("+Inf bucket %d, want %d", cum, ref.N())
			}
			continue
		}
		want := ref.Zero
		for i, c := range ref.Counts {
			if ref.Low+i < leFirst+e*leStep {
				want += c
			}
		}
		if cum != want {
			t.Errorf("le edge %d: exposition %d, Hist cumulative %d", e, cum, want)
		}
	}
}

// scrapeBuckets renders r and returns name's cumulative bucket values in
// exposition order, +Inf last.
func scrapeBuckets(t *testing.T, r *Registry, name string) []int64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	var out []int64
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"_bucket{") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		out = append(out, v)
	}
	if len(out) != leEdges+1 {
		t.Fatalf("%s: %d bucket lines, want %d edges and +Inf", name, len(out), leEdges)
	}
	return out
}

// TestScrapeUnderObserveIsMonotonic scrapes while writers observe: within
// one exposition the cumulative buckets never decrease and never exceed
// +Inf, which equals _count (Observe bumps the bucket before the total, so
// the writer clamps). Run under -race in CI.
func TestScrapeUnderObserveIsMonotonic(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("busy", "observed while scraped")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64((i*7+w)%5000) / 10)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		b := scrapeBuckets(t, r, "busy")
		for e := 1; e < len(b); e++ {
			if b[e] < b[e-1] {
				t.Fatalf("scrape %d: bucket %d holds %d after %d", i, e, b[e], b[e-1])
			}
		}
	}
	close(stop)
	wg.Wait()
	snap := h.Snapshot()
	if b := scrapeBuckets(t, r, "busy"); b[leEdges] != h.Count() || snap.N() != h.Count() {
		t.Errorf("settled: +Inf %d, snapshot %d, count %d", b[leEdges], snap.N(), h.Count())
	}
}

// TestSnapshot checks the programmatic view agrees with the instruments.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c").Add(11)
	r.Gauge("g", "g").Set(-2)
	h := r.Histogram("h", "h")
	h.Observe(4)
	h.Observe(8)
	pts := r.Snapshot()
	byName := map[string]Point{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	if p := byName["c_total"]; p.Value != 11 || p.Kind != "counter" {
		t.Fatalf("counter point %+v", p)
	}
	if p := byName["g"]; p.Value != -2 || p.Kind != "gauge" {
		t.Fatalf("gauge point %+v", p)
	}
	if p := byName["h"]; p.Value != 12 || p.Count != 2 || p.Kind != "histogram" {
		t.Fatalf("histogram point %+v", p)
	}
}

// TestInstrumentsZeroAlloc pins that the hot-path operations of every
// instrument — and the trace recorder, enabled or disabled — allocate
// nothing. The broadcast decode path runs these per packet; the repo's
// AllocsPerRun=0 regression suite depends on this staying exact.
func TestInstrumentsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h")
	tr := NewTrace(64)
	var nilTr *Trace
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Add(3)
		h.Observe(17)
		tr.Record(EvRetry, 12345, 0)
		nilTr.Record(EvRetry, 12345, 0)
	}); n != 0 {
		t.Fatalf("instrument hot path allocates %v per run, want 0", n)
	}
}

// TestTraceRing checks ring-wrap retention, Seq monotonicity and
// nil-safety of the flight recorder.
func TestTraceRing(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(EvHop, int64(i), int64(i%3))
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tr.Len())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq || e.Pos != int64(6+i) {
			t.Fatalf("event %d = %+v, want seq/pos %d", i, e, wantSeq)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("Reset did not clear the trace")
	}

	var nilTr *Trace
	nilTr.Record(EvTuneIn, 0, 0) // must not panic
	if nilTr.Len() != 0 || nilTr.Events() != nil {
		t.Fatal("nil trace is not inert")
	}
	empty := NewTrace(0)
	empty.Record(EvTuneIn, 1, 1)
	if empty.Len() != 0 {
		t.Fatal("zero-capacity trace recorded")
	}
}

// TestEventKindStrings keeps the rendered schema names stable (they appear
// in DESIGN.md §10 and in statusz output).
func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EvTuneIn: "tune-in", EvDirRead: "dir-read", EvHop: "hop",
		EvRetry: "retry", EvReentry: "reentry", EvPatchApply: "patch-apply",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
