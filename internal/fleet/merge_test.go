package fleet

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestClientSeedDerivation is the regression test for the additive seed
// bug: with seed + id*7919, client 1 of run S drew the same loss pattern
// as client 0 of run S+7919, so sweeping nearby run seeds re-ran the same
// devices. The mixed derivation must break that aliasing and stay
// collision-free across a seed x id grid.
func TestClientSeedDerivation(t *testing.T) {
	if clientSeed(1, 1) == clientSeed(1+7919, 0) {
		t.Fatal("clientSeed still aliases additively: (S,1) == (S+7919,0)")
	}
	seen := make(map[int64][2]int64)
	for _, seed := range []int64{0, 1, 2, 17, 7919, -1, 1 << 40} {
		for id := 0; id < 256; id++ {
			s := clientSeed(seed, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("clientSeed collision: (%d,%d) and (%d,%d) -> %d",
					seed, id, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{seed, int64(id)}
		}
	}
}

// TestMergeResults checks the controller-side fold: exact fields merge
// exactly, QPS is recomputed over the longest part, and mismatched parts
// are refused.
func TestMergeResults(t *testing.T) {
	part := func(n int, elapsed time.Duration, tuning float64) Result {
		var s metrics.Series
		for i := 0; i < n; i++ {
			s.Add(tuning)
		}
		var r Result
		r.WireVersion = ResultWireVersion
		r.Method = "NR"
		r.Rate = 2_000_000
		r.Clients = 4
		r.Queries = n
		r.Pool = 30
		r.Agg = metrics.Agg{N: n, SumTuning: 100 * n, SumLatency: 900 * n}
		r.Elapsed = elapsed
		r.QPS = float64(n) / elapsed.Seconds()
		r.Tuning, r.TuningHist = s.Quantiles(), s.Hist()
		r.Latency, r.LatencyHist = s.Quantiles(), s.Hist()
		r.Energy, r.EnergyHist = s.Quantiles(), s.Hist()
		r.LostPackets = int64(n)
		r.MissedPackets = int64(n / 2)
		r.MeanEnergy = 0.5
		return r
	}
	a := part(30, 2*time.Second, 100)
	b := part(60, 3*time.Second, 130)
	out, err := MergeResults([]Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if out.Queries != 90 || out.Clients != 8 || out.Agg.N != 90 {
		t.Fatalf("merged counts: %+v", out)
	}
	if out.LostPackets != 90 || out.MissedPackets != 45 {
		t.Errorf("merged loss %d/%d", out.LostPackets, out.MissedPackets)
	}
	if out.Elapsed != 3*time.Second {
		t.Errorf("merged elapsed %v, want the longest part", out.Elapsed)
	}
	if want := 90.0 / 3.0; out.QPS != want {
		t.Errorf("merged QPS %v, want %v (total over longest window)", out.QPS, want)
	}
	// Two thirds of the merged population tuned 130 packets: the global
	// median is 130, not a mean of the parts' medians.
	if !metrics.SameBucket(out.Tuning.P50, 130) {
		t.Errorf("merged tuning p50 %v, want 130 to within a bucket", out.Tuning.P50)
	}
	if out.MeanEnergy != 0.5 {
		t.Errorf("merged mean energy %v", out.MeanEnergy)
	}

	bad := part(10, time.Second, 50)
	bad.Method = "EB"
	if _, err := MergeResults([]Result{a, bad}); err == nil {
		t.Error("merging results of different methods succeeded")
	}
	bad = part(10, time.Second, 50)
	bad.Rate = 1
	if _, err := MergeResults([]Result{a, bad}); err == nil {
		t.Error("merging results of different rates succeeded")
	}
	if _, err := MergeResults(nil); err == nil {
		t.Error("merging nothing succeeded")
	}
	// A part from another wire version, or one stripped of its histograms,
	// is not a worker's result: refused, never approximated.
	bad = part(10, time.Second, 50)
	bad.WireVersion = ResultWireVersion - 1
	if _, err := MergeResults([]Result{a, bad}); err == nil {
		t.Error("merging a part stamped with another wire version succeeded")
	}
	bad = part(10, time.Second, 50)
	bad.LatencyHist = nil
	if _, err := MergeResults([]Result{a, bad}); err == nil {
		t.Error("merging a part without tail histograms succeeded")
	}
	// Pool is total concurrent capacity: parts of 30 each sum, not max.
	out, err = MergeResults([]Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if out.Pool != 60 {
		t.Errorf("merged pool %d, want the parts' sum 60", out.Pool)
	}
}

// TestMergeResultsExactTails is the regression test for the N-weighted-mean
// tail bug: on deliberately skewed parts (one fast fleet, one slow fleet)
// the merged p50/p95/p99 must match the exact whole-population percentiles
// within one histogram bucket, where the old weighted mean was off without
// bound.
func TestMergeResultsExactTails(t *testing.T) {
	// Two parts with very different distributions: part A's queries all
	// tune ~10 packets; part B is a minority of the population but all its
	// queries tune ~1000. The global p99 lives in part B; the N-weighted
	// mean of per-part p99s lands far below it.
	sample := func(r *Result, pop *metrics.Series, vals []float64) {
		var s metrics.Series
		for _, v := range vals {
			s.Add(v)
			pop.Add(v)
		}
		r.Agg.N = s.N()
		r.Queries = s.N()
		r.Tuning = s.Quantiles()
		r.TuningHist = s.Hist()
		r.Latency, r.LatencyHist = s.Quantiles(), s.Hist()
		r.Energy, r.EnergyHist = s.Quantiles(), s.Hist()
		r.WireVersion = ResultWireVersion
		r.Method, r.Rate, r.Elapsed = "NR", 2_000_000, time.Second
	}
	var pop metrics.Series
	var a, b Result
	fast := make([]float64, 900)
	for i := range fast {
		fast[i] = 10 + float64(i%7)
	}
	slow := make([]float64, 100)
	for i := range slow {
		slow[i] = 1000 + float64(i%50)
	}
	sample(&a, &pop, fast)
	sample(&b, &pop, slow)

	out, err := MergeResults([]Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		p   float64
		got float64
	}{{50, out.Tuning.P50}, {95, out.Tuning.P95}, {99, out.Tuning.P99}} {
		exact := pop.Percentile(q.p)
		if !metrics.SameBucket(q.got, exact) {
			t.Errorf("merged p%v = %v, exact population percentile %v — more than one bucket apart", q.p, q.got, exact)
		}
	}
	// The bug this fixes: the weighted mean puts p99 near 0.9*13+0.1*1049,
	// nowhere near the true ~1049. Assert the merge is not doing that.
	if out.Tuning.P99 < 900 {
		t.Errorf("merged p99 = %v, still looks like an N-weighted mean (exact is %v)", out.Tuning.P99, pop.Percentile(99))
	}
	if out.WireVersion != ResultWireVersion || out.TuningHist == nil {
		t.Errorf("merged result dropped its histograms (wire v%d)", out.WireVersion)
	}
}
