package fleet

import (
	"encoding/json"
	"runtime"
	"strings"
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

// part builds a worker's Result as the wire carries it: n answered queries
// that all tuned (and waited, and spent) the given value, folded alone.
func part(t *testing.T, n int, elapsed time.Duration, tuning float64) Result {
	t.Helper()
	p := &Partial{
		Queries: n, Agg: metrics.Agg{N: n, SumTuning: 100 * n, SumLatency: 900 * n},
		LostPackets: int64(n), MissedPackets: int64(n / 2),
	}
	for i := 0; i < n; i++ {
		p.TuningHist.Add(tuning)
		p.CleanLatencyHist.Add(tuning)
		p.EnergyHist.Add(0.5)
	}
	r := foldOne(t, p, elapsed)
	r.Clients, r.Pool = 4, 30
	return r
}

// TestMergeResults checks the controller-side fold: exact fields merge
// exactly, QPS is recomputed over the longest part, and mismatched parts
// are refused.
func TestMergeResults(t *testing.T) {
	a := part(t, 30, 2*time.Second, 100)
	b := part(t, 60, 3*time.Second, 130)
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
	// Pool is total concurrent capacity: parts of 30 each sum, not max.
	if out.Pool != 60 {
		t.Errorf("merged pool %d, want the parts' sum 60", out.Pool)
	}

	// A part that is not a worker's result of this run is refused, never
	// approximated, and the error says which part it was.
	for name, spoil := range map[string]func(*Result){
		"another method":           func(r *Result) { r.Method = "EB" },
		"another rate":             func(r *Result) { r.Rate = 1 },
		"another channel count":    func(r *Result) { r.ChannelTuning = make([]metrics.Hist, 2) },
		"another wire version":     func(r *Result) { r.WireVersion = ResultWireVersion - 1 },
		"a histogram stripped":     func(r *Result) { r.CleanLatencyHist = metrics.Hist{} },
		"an outcome count dropped": func(r *Result) { r.Queries++ },
		"a window past the layout": func(r *Result) { r.HopsHist = metrics.Hist{Low: 50_000_000, Counts: []int64{1}} },
		"a negative bucket":        func(r *Result) { r.HopsHist = metrics.Hist{Low: 7, Counts: []int64{3, -9}} },
		"a negative window":        func(r *Result) { r.ChannelTuning = nil; r.HopsHist = metrics.Hist{Low: -7, Counts: []int64{3, -9}} },
	} {
		bad := part(t, 10, time.Second, 50)
		spoil(&bad)
		_, err := MergeResults([]Result{a, bad})
		if err == nil {
			t.Errorf("merging a part with %s succeeded", name)
		} else if !strings.Contains(err.Error(), "part 1") {
			t.Errorf("%s: error %q does not name part 1", name, err)
		}
	}
	if _, err := MergeResults(nil); err == nil {
		t.Error("merging nothing succeeded")
	}
}

// TestMergeResultsRejectsMalformedHist feeds MergeResults the two worker
// outputs that used to get through: a histogram window 50 million buckets
// up (Counts grew to 400 MB) and one below the layout with a negative count
// (N() == -5). Both are decoded from JSON like a worker's stdout and merged
// after one honest part; both are refused by name, without the allocation.
func TestMergeResultsRejectsMalformedHist(t *testing.T) {
	honest := part(t, 30, time.Second, 100)
	wire, err := json.Marshal(part(t, 10, time.Second, 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, hist := range []string{`{"Low":50000000,"Counts":[1]}`, `{"Low":-7,"Counts":[3,-9]}`} {
		// The histogram replaces the part's (empty) hops histogram, which no
		// count cross-checks: only its own shape can refuse it.
		doc := strings.Replace(string(wire), `"HopsHist":{}`, `"HopsHist":`+hist, 1)
		if doc == string(wire) {
			t.Fatal("worker JSON carries no empty HopsHist to replace")
		}
		var bad Result
		if err := json.Unmarshal([]byte(doc), &bad); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, mergeErr := MergeResults([]Result{honest, bad})
		runtime.ReadMemStats(&m1)
		if mergeErr == nil || !strings.Contains(mergeErr.Error(), "part 1") {
			t.Errorf("%s: merge error %v, want one naming part 1", hist, mergeErr)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", hist, grew)
		}
	}
}

// TestMergeResultsChannelTails: per-channel tails survive a merge. The
// per-channel histogram travels with the part, so the merged
// ChannelStats.Tuning is the true global tail (a merge used to sum Packets
// and Queries and leave Tuning all zero).
func TestMergeResultsChannelTails(t *testing.T) {
	var pop [2][]float64
	build := func(n int, base float64) Result {
		p := new(Partial)
		for i := 0; i < n; i++ {
			per := []int{int(base) + i%7, 3 * (int(base) + i%5)}
			p.add(sampleQuery(i), Air{Attempts: 1, PerChannel: per, Hops: 1}, testRate)
			for c, v := range per {
				pop[c] = append(pop[c], float64(v))
			}
		}
		return foldOne(t, p, time.Second)
	}
	// A fast majority and a slow minority: each channel's p99 lives in the
	// minority part.
	out, err := MergeResults([]Result{build(900, 10), build(100, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Channels) != 2 {
		t.Fatalf("merged %d channels, want 2", len(out.Channels))
	}
	for c, ch := range out.Channels {
		if ch.Queries != 1000 || ch.QPS != 1000 {
			t.Errorf("channel %d: %d queries at %v/s, want 1000", c, ch.Queries, ch.QPS)
		}
		var packets float64
		for _, v := range pop[c] {
			packets += v
		}
		if float64(ch.Packets) != packets {
			t.Errorf("channel %d: %d packets, the parts received %v", c, ch.Packets, packets)
		}
		for _, q := range []struct{ p, got float64 }{{50, ch.Tuning.P50}, {95, ch.Tuning.P95}, {99, ch.Tuning.P99}} {
			if exact := percentile(pop[c], q.p); q.got == 0 || !metrics.SameBucket(q.got, exact) {
				t.Errorf("channel %d merged p%v = %v, population percentile %v", c, q.p, q.got, exact)
			}
		}
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
	var pop []float64
	sample := func(vals []float64) Result {
		p := &Partial{Queries: len(vals), Agg: metrics.Agg{N: len(vals)}}
		for _, v := range vals {
			p.TuningHist.Add(v)
			p.CleanLatencyHist.Add(v)
			p.EnergyHist.Add(v)
		}
		pop = append(pop, vals...)
		return foldOne(t, p, time.Second)
	}
	fast := make([]float64, 900)
	for i := range fast {
		fast[i] = 10 + float64(i%7)
	}
	slow := make([]float64, 100)
	for i := range slow {
		slow[i] = 1000 + float64(i%50)
	}
	out, err := MergeResults([]Result{sample(fast), sample(slow)})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		p   float64
		got float64
	}{{50, out.Tuning.P50}, {95, out.Tuning.P95}, {99, out.Tuning.P99}} {
		exact := percentile(pop, q.p)
		if !metrics.SameBucket(q.got, exact) {
			t.Errorf("merged p%v = %v, exact population percentile %v — more than one bucket apart", q.p, q.got, exact)
		}
	}
	// The bug this fixes: the weighted mean puts p99 near 0.9*13+0.1*1049,
	// nowhere near the true ~1049. Assert the merge is not doing that.
	if out.Tuning.P99 < 900 {
		t.Errorf("merged p99 = %v, still looks like an N-weighted mean (exact is %v)", out.Tuning.P99, percentile(pop, 99))
	}
	// The merged result carries its histograms, so a merge of merges stays
	// exact.
	if out.WireVersion != ResultWireVersion || out.TuningHist.N() != 1000 {
		t.Errorf("merged result dropped its histograms (wire v%d, %d tuning samples)", out.WireVersion, out.TuningHist.N())
	}
	again, err := MergeResults([]Result{out})
	if err != nil || again.Tuning != out.Tuning {
		t.Errorf("merge of a merge: tails %+v, want %+v (err %v)", again.Tuning, out.Tuning, err)
	}
}
