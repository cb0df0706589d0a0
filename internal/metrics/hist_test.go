package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestHistQuantileWithinOneBucket: a histogram quantile must land within
// one bucket of the exact sample percentile, across shapes (uniform,
// heavy-tailed, point mass).
func TestHistQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := map[string]func() float64{
		"uniform":   func() float64 { return 1 + 99*rng.Float64() },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64() * 2) },
		"point":     func() float64 { return 42 },
		"packets":   func() float64 { return float64(1 + rng.Intn(500)) },
	}
	for name, draw := range shapes {
		var s Series
		var h Hist
		for i := 0; i < 5000; i++ {
			v := draw()
			s.Add(v)
			h.Add(v)
		}
		// Same samples, same order: Sum is the reference's sum to the bit (asked
		// before Percentile sorts the reference).
		if h.Mean() != s.Mean() || h.N() != int64(s.N()) {
			t.Errorf("%s: hist mean %v over %d, reference %v over %d", name, h.Mean(), h.N(), s.Mean(), s.N())
		}
		for _, p := range []float64{50, 95, 99} {
			exact := s.Percentile(p)
			got := h.Quantile(p)
			if !SameBucket(got, exact) {
				t.Errorf("%s p%v: hist %v vs exact %v — more than one bucket apart", name, p, got, exact)
			}
		}
	}
}

// TestHistMergeEqualsWholePopulation: merging per-part histograms must give
// the same histogram as one built over the whole population — count-exact,
// not just quantile-close.
func TestHistMergeEqualsWholePopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var whole Hist
	var merged Hist
	for part := 0; part < 7; part++ {
		var h Hist
		n := 100 + part*300
		scale := math.Pow(10, float64(part-3)) // parts live at very different magnitudes
		for i := 0; i < n; i++ {
			v := scale * (1 + rng.Float64())
			whole.Add(v)
			h.Add(v)
		}
		if err := merged.Merge(&h); err != nil {
			t.Fatal(err)
		}
	}
	if whole.N() != merged.N() {
		t.Fatalf("merged N = %d, whole N = %d", merged.N(), whole.N())
	}
	if whole.Zero != merged.Zero || whole.Low != merged.Low || len(whole.Counts) != len(merged.Counts) {
		t.Fatalf("merged layout differs: zero %d/%d low %d/%d len %d/%d",
			merged.Zero, whole.Zero, merged.Low, whole.Low, len(merged.Counts), len(whole.Counts))
	}
	for i := range whole.Counts {
		if whole.Counts[i] != merged.Counts[i] {
			t.Fatalf("bucket %d: merged %d, whole %d", whole.Low+i, merged.Counts[i], whole.Counts[i])
		}
	}
}

// TestHistEdges pins the degenerate inputs: zeros and negatives land in the
// Zero bucket, +Inf clamps into the top bucket, the empty histogram
// reports 0.
func TestHistEdges(t *testing.T) {
	var h Hist
	if h.Quantile(99) != 0 || h.N() != 0 || h.Mean() != 0 || h.Quantiles() != (Quantiles{}) {
		t.Fatal("empty histogram not zero")
	}
	if err := h.Merge(&Hist{}); err != nil || h.N() != 0 {
		t.Fatalf("merging empty into empty: n %d, err %v", h.N(), err)
	}
	h.Add(0)
	h.Add(-3)
	h.Add(math.NaN())
	if h.Zero != 3 || len(h.Counts) != 0 || h.Sum != 0 {
		t.Fatalf("zero bucket %d, counts %v, sum %v", h.Zero, h.Counts, h.Sum)
	}
	if h.Quantile(50) != 0 {
		t.Fatalf("all-zero histogram p50 = %v", h.Quantile(50))
	}
	h.Add(math.Inf(1))
	if got := h.Quantile(100); math.IsInf(got, 1) || got <= 0 {
		t.Fatalf("clamped Inf reports %v", got)
	}
	// A mostly-zero series: p50 is 0, p99 is the spike.
	var spiky Hist
	for i := 0; i < 99; i++ {
		spiky.Add(0)
	}
	spiky.Add(1000)
	if spiky.Quantile(50) != 0 {
		t.Errorf("spiky p50 = %v, want 0", spiky.Quantile(50))
	}
	if !SameBucket(spiky.Quantile(100), 1000) {
		t.Errorf("spiky p100 = %v, want ~1000", spiky.Quantile(100))
	}
}

// TestHistJSONRoundTrip: the wire form (sparse counts window) survives
// encode/decode bit-exactly — this is what airfleet workers ship.
func TestHistJSONRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []float64{0, 0.004, 33, 34, 34, 1e6} {
		h.Add(v)
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != h.N() || back.Zero != h.Zero || back.Low != h.Low || back.Sum != h.Sum {
		t.Fatalf("round trip: %+v vs %+v", back, h)
	}
	for _, p := range []float64{50, 95, 99} {
		if back.Quantile(p) != h.Quantile(p) {
			t.Fatalf("p%v drifted across JSON: %v vs %v", p, back.Quantile(p), h.Quantile(p))
		}
	}
}

// TestHistMergeRejectsMalformed: a decoded histogram is bytes this process
// did not write. One whose window leaves the layout, or that carries a
// negative count, is refused before anything is allocated or added — the
// first input used to grow Counts to 50 000 008 entries, the second to
// report N() == -5.
func TestHistMergeRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		`{"Low":50000000,"Counts":[1]}`,
		`{"Low":-7,"Counts":[3,-9]}`,
		`{"Low":638,"Counts":[1,1,1]}`,
		`{"Low":10,"Counts":[3,-9]}`,
		`{"Zero":-1}`,
		`{"Zero":2,"Sum":-4}`,
	} {
		var bad Hist
		if err := json.Unmarshal([]byte(in), &bad); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		var h Hist
		for i := 0; i < 8; i++ {
			h.Add(34)
		}
		before := h
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := h.Merge(&bad)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: merged", in)
		} else if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: refusing it allocated %d bytes", in, grew)
		}
		if h.N() != 8 || h.Low != before.Low || len(h.Counts) != 1 || h.Sum != before.Sum {
			t.Errorf("%s: a refused merge changed the receiver: %+v", in, h)
		}
	}
	// The widest honest histogram still merges.
	var wide, h Hist
	wide.Add(2e-9)
	wide.Add(math.Inf(1))
	wide.Sum = 1 // +Inf does not survive JSON; the window is what is under test
	if err := h.Merge(&wide); err != nil || h.N() != 2 || len(h.Counts) > NumBuckets {
		t.Errorf("full-width merge: n %d, %d buckets, err %v", h.N(), len(h.Counts), err)
	}
}
