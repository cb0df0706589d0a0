package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline/djair"
	"repro/internal/broadcast"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/station"
	"repro/internal/workload"
)

func startStation(t *testing.T, srv scheme.Server, cfg station.Config) *station.Station {
	t.Helper()
	st, err := station.New(srv.Cycle(), cfg)
	if err != nil {
		t.Fatalf("station.New: %v", err)
	}
	if err := st.Start(context.Background()); err != nil {
		t.Fatalf("station.Start: %v", err)
	}
	t.Cleanup(st.Stop)
	return st
}

func nrServer(t *testing.T, g *graph.Graph) scheme.Server {
	t.Helper()
	srv, err := core.NewNR(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatalf("NewNR: %v", err)
	}
	return srv
}

// TestLiveMatchesOfflineTuner pins the subsystem's key invariant: a fleet
// client answering over a live station subscription observes exactly the
// same distance, tuning time and access latency as the offline tuner with
// the same tune-in position and loss seed.
func TestLiveMatchesOfflineTuner(t *testing.T) {
	g := conformance.Network(t, 350, 500, 11)
	for _, srv := range []scheme.Server{djair.New(g), nrServer(t, g)} {
		for _, loss := range []float64{0, 0.05} {
			st := startStation(t, srv, station.Config{})
			client := srv.NewClient()
			offline := srv.NewClient()
			for i := 0; i < 12; i++ {
				s := graph.NodeID(i * 13 % g.NumNodes())
				d := graph.NodeID((i*29 + 7) % g.NumNodes())
				if s == d {
					continue
				}
				q := scheme.QueryFor(g, s, d)
				seed := int64(1000 + i)

				sub, err := st.Subscribe(loss, seed)
				if err != nil {
					t.Fatal(err)
				}
				liveTuner := broadcast.NewFeedTuner(sub, sub.Start())
				live, err := client.Query(liveTuner, q)
				tuneIn := sub.Start()
				missed := sub.Missed()
				sub.Close()
				if err != nil {
					t.Fatalf("%s live query %d: %v", srv.Name(), i, err)
				}
				if missed != 0 {
					t.Fatalf("%s live query %d: virtual clock missed %d packets", srv.Name(), i, missed)
				}

				offCh, err := broadcast.NewChannel(srv.Cycle(), loss, seed)
				if err != nil {
					t.Fatal(err)
				}
				offTuner := broadcast.NewTuner(offCh, tuneIn)
				off, err := offline.Query(offTuner, q)
				if err != nil {
					t.Fatalf("%s offline query %d: %v", srv.Name(), i, err)
				}

				if live.Dist != off.Dist {
					t.Errorf("%s loss=%v query %d: live dist %v != offline %v", srv.Name(), loss, i, live.Dist, off.Dist)
				}
				if live.Metrics.TuningPackets != off.Metrics.TuningPackets {
					t.Errorf("%s loss=%v query %d: live tuning %d != offline %d",
						srv.Name(), loss, i, live.Metrics.TuningPackets, off.Metrics.TuningPackets)
				}
				if live.Metrics.LatencyPackets != off.Metrics.LatencyPackets {
					t.Errorf("%s loss=%v query %d: live latency %d != offline %d",
						srv.Name(), loss, i, live.Metrics.LatencyPackets, off.Metrics.LatencyPackets)
				}
			}
			st.Stop()
		}
	}
}

// sample is one query's outcome as a worker hands it to Partial.add.
type sample struct {
	q   metrics.Query
	air Air
}

// sampleStream is a deterministic multi-channel mix of every outcome: mostly
// answered (one in nine of those stale, re-entered once to three times), the
// rest failed, degraded or refused, with loss on all of them.
func sampleStream(n int) []sample {
	out := make([]sample, n)
	for i := range out {
		s := &out[i]
		s.q = sampleQuery(i)
		s.q.CPU = time.Duration(i%17) * 37 * time.Microsecond
		s.air = Air{
			Attempts: 1, Lost: i % 6, Missed: i % 6 / 2,
			// Channel 3 is skipped by every other query.
			PerChannel: []int{40 + i%7, 25 + i%5, 60 + i*3%11, i % 2 * (20 + i%6)}, Hops: i % 4,
		}
		switch {
		case i%23 == 0:
			s.air.Outcome = Failed
		case i%31 == 0:
			s.air.Outcome = Degraded
		case i%37 == 0:
			s.air.Outcome = Refused
		case i%9 == 0:
			s.air.Attempts = 2 + i%3
		}
	}
	return out
}

const testRate = 2_000_000

// foldOne folds a single partial into a Result labelled like a one-client NR
// run's, as run does.
func foldOne(t *testing.T, p *Partial, elapsed time.Duration) Result {
	t.Helper()
	r, err := fold([]*Partial{p}, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	r.Method, r.Rate, r.Clients, r.Pool = "NR", testRate, 1, 10
	return r
}

// TestOneMerge pins "one merge": the same sample stream counted into one
// partial, or dealt round-robin over N partials that each travel as a
// worker's JSON and are folded by MergeResults, gives the same Result —
// counts, every tail, the per-channel stats and the packet-valued means
// exactly, not to within a bucket. Only the energy sum, non-integer floats
// added in another order, is compared to 1e-12.
func TestOneMerge(t *testing.T) {
	stream := sampleStream(10_000)
	whole := new(Partial)
	for _, s := range stream {
		whole.add(s.q, s.air, testRate)
	}
	for _, n := range []int{4, 64} {
		want := foldOne(t, whole, time.Second)
		want.Clients, want.Pool = n, 10*n // what n one-client parts sum to

		parts := make([]Partial, n)
		for i, s := range stream {
			parts[i%n].add(s.q, s.air, testRate)
		}
		wire := make([]Result, n)
		for i := range parts {
			b, err := json.Marshal(foldOne(t, &parts[i], time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &wire[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := MergeResults(wire)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if err := got.check(); err != nil {
			t.Errorf("N=%d: merged result: %v", n, err)
		}

		for name, pair := range map[string][2]float64{
			"MeanEnergy":     {got.MeanEnergy, want.MeanEnergy},
			"EnergyHist.Sum": {got.EnergyHist.Sum, want.EnergyHist.Sum},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-12*pair[1] {
				t.Errorf("N=%d: %s %v, one partial says %v", n, name, pair[0], pair[1])
			}
		}
		got.MeanEnergy, got.EnergyHist.Sum = want.MeanEnergy, want.EnergyHist.Sum
		if !reflect.DeepEqual(got, want) {
			t.Errorf("N=%d: merged result differs from one partial's:\n got %+v\nwant %+v", n, got, want)
		}
		if g, w := got.staleness(), want.staleness(); !reflect.DeepEqual(g, w) {
			t.Errorf("N=%d: staleness split differs:\n got %+v\nwant %+v", n, g, w)
		}
	}
}

// percentile is the sort-based reference the histogram tails are held to:
// the p-th percentile of vals by linear interpolation between closest
// ranks, what the fleet reported exactly while it still kept every sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

// TestTailsWithinOneBucketMeansExact holds every quantile a Result and a
// ChurnResult report to the sort-based reference — within one layout bucket
// — and every mean to the exact mean of the raw samples.
func TestTailsWithinOneBucketMeansExact(t *testing.T) {
	var tuning, latency, clean, stale, energy, hops []float64
	perChan := make([][]float64, 4)
	p := new(Partial)
	for _, s := range sampleStream(10_000) {
		p.add(s.q, s.air, testRate)
		if s.air.Outcome != Answered {
			continue
		}
		tuning = append(tuning, float64(s.q.TuningPackets))
		energy = append(energy, s.q.EnergyJoules(testRate))
		hops = append(hops, float64(s.air.Hops))
		l := float64(s.q.LatencyPackets)
		latency = append(latency, l)
		if s.air.Attempts > 1 {
			stale = append(stale, l)
		} else {
			clean = append(clean, l)
		}
		for c, n := range s.air.PerChannel {
			if n != 0 {
				perChan[c] = append(perChan[c], float64(n))
			}
		}
	}
	r := foldOne(t, p, time.Second)
	churn := r.staleness()
	tails := func(name string, got metrics.Quantiles, vals []float64) {
		t.Helper()
		for _, q := range []struct{ p, got float64 }{{50, got.P50}, {95, got.P95}, {99, got.P99}} {
			if exact := percentile(vals, q.p); !metrics.SameBucket(q.got, exact) {
				t.Errorf("%s p%v = %v, sorted samples say %v — more than one bucket apart", name, q.p, q.got, exact)
			}
		}
	}
	mean := func(vals []float64) float64 {
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}
	tails("tuning", r.Tuning, tuning)
	tails("latency", r.Latency, latency)
	tails("energy", r.Energy, energy)
	tails("clean latency", churn.CleanLatency, clean)
	tails("stale latency", churn.StaleLatency, stale)
	for c, ch := range r.Channels {
		tails(fmt.Sprintf("channel %d tuning", c), ch.Tuning, perChan[c])
		if ch.Queries != len(perChan[c]) || float64(ch.Packets) != mean(perChan[c])*float64(len(perChan[c])) {
			t.Errorf("channel %d: %d packets over %d queries, samples say %v over %d",
				c, ch.Packets, ch.Queries, mean(perChan[c])*float64(len(perChan[c])), len(perChan[c]))
		}
	}
	if len(r.Channels) != 4 || churn.StaleQueries != len(stale) || len(stale) == 0 {
		t.Fatalf("%d channels, %d stale queries (stream has %d)", len(r.Channels), churn.StaleQueries, len(stale))
	}
	for name, pair := range map[string][2]float64{
		"MeanEnergy":       {r.MeanEnergy, mean(energy)}, // same samples, same order: equal to the bit
		"MeanHops":         {r.MeanHops, mean(hops)},
		"MeanCleanLatency": {churn.MeanCleanLatency, mean(clean)},
		"MeanStaleLatency": {churn.MeanStaleLatency, mean(stale)},
		"mean tuning":      {r.TuningHist.Mean(), r.Agg.MeanTuning()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s = %v, raw samples say %v", name, pair[0], pair[1])
		}
	}
}

// TestSummarizeAllErrors pins the zero-completed-queries path: a run where
// every query failed must summarize to zero quantiles, zero means and zero
// QPS — finite numbers everywhere, nothing NaN, no division by the
// completed-query count.
func TestSummarizeAllErrors(t *testing.T) {
	parts := make([]*Partial, 8)
	for w := range parts {
		parts[w] = new(Partial)
		parts[w].add(metrics.Query{}, Air{Outcome: Failed}, testRate)
		parts[w].add(metrics.Query{}, Air{Outcome: Failed}, testRate)
	}
	res, err := fold(parts, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 16 || res.Errors != 16 || res.Agg.N != 0 {
		t.Fatalf("queries %d errors %d n %d", res.Queries, res.Errors, res.Agg.N)
	}
	churn := res.staleness()
	for name, v := range map[string]float64{
		"qps": res.QPS, "meanEnergy": res.MeanEnergy, "meanHops": res.MeanHops,
		"tuning p50": res.Tuning.P50, "latency p99": res.Latency.P99, "energy p95": res.Energy.P95,
		"mean tuning": res.Agg.MeanTuning(), "mean latency": res.Agg.MeanLatency(),
		"clean p50": churn.CleanLatency.P50, "mean stale latency": churn.MeanStaleLatency,
	} {
		if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
}

// TestRunAllErrorsQPSFinite drives the runner with sessions that answer
// every query with a NaN distance: NaN must fail verification (the pasted
// answer checks this runner replaced accepted it), and the all-error summary
// must carry zero QPS and zero tails rather than NaN.
func TestRunAllErrorsQPSFinite(t *testing.T) {
	g := conformance.Network(t, 200, 280, 3)
	w := workload.Generate(g, 8, 100, 4)
	target := Target{
		Method: "fake", Rate: 2_000_000,
		Open: func(int, int64) (Session, error) { return nanSession{}, nil },
	}
	res, err := Run(context.Background(), target, w, Options{Clients: 4, Queries: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 16 || res.Agg.N != 0 {
		t.Fatalf("errors %d, answered %d — NaN distances slipped through verification", res.Errors, res.Agg.N)
	}
	if res.QPS != 0 || math.IsNaN(res.QPS) {
		t.Errorf("all-error QPS %v, want 0", res.QPS)
	}
	if res.Tuning != (metrics.Quantiles{}) || res.MeanEnergy != 0 {
		t.Errorf("all-error tails %+v energy %v", res.Tuning, res.MeanEnergy)
	}
}

// nanSession claims every query answered, at distance NaN.
type nanSession struct{}

func (nanSession) Ask(context.Context, scheme.Query) (scheme.Result, Air) {
	return scheme.Result{Dist: math.NaN(), Metrics: sampleQuery(1)}, Air{Outcome: Answered, Attempts: 1}
}

// TestRunWorkersLoseNoSample drives 32 workers, each counting into its own
// partial, through 6 400 queries of which every tenth session answer is
// wrong: the race detector checks nothing is shared while they run, the
// totals check the fold loses no sample.
func TestRunWorkersLoseNoSample(t *testing.T) {
	g := conformance.Network(t, 200, 280, 3)
	w := workload.Generate(g, 10, 100, 4)
	fake := tenthWrongSession{asked: new(atomic.Int64), refs: map[[2]graph.NodeID]float64{}}
	for _, q := range w.Queries {
		fake.refs[[2]graph.NodeID{q.S, q.T}] = q.RefDist
	}
	target := Target{
		Method: "fake", Rate: testRate,
		Open: func(int, int64) (Session, error) { return fake, nil },
	}
	const workers, total = 32, 6400
	res, err := Run(context.Background(), target, w, Options{Clients: workers, Queries: total, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != total || res.Clients != workers {
		t.Errorf("queries %d clients %d, want %d/%d", res.Queries, res.Clients, total, workers)
	}
	if res.Errors != total/10 {
		t.Errorf("errors %d, want %d", res.Errors, total/10)
	}
	if res.Agg.N != total*9/10 || res.TuningHist.N() != int64(res.Agg.N) {
		t.Errorf("agg n %d, tuning samples %d", res.Agg.N, res.TuningHist.N())
	}
	if res.Tuning.P50 <= 0 || res.Tuning.P99 < res.Tuning.P50 {
		t.Errorf("tails %+v", res.Tuning)
	}
}

// tenthWrongSession answers every query with its reference distance (the
// workload's own, version 0) except every tenth asked, which it gets wrong.
type tenthWrongSession struct {
	asked *atomic.Int64
	refs  map[[2]graph.NodeID]float64
}

func (s tenthWrongSession) Ask(_ context.Context, q scheme.Query) (scheme.Result, Air) {
	n := s.asked.Add(1)
	res := scheme.Result{Dist: math.NaN(), Metrics: sampleQuery(int(n))}
	if n%10 != 0 {
		res.Dist = s.refs[[2]graph.NodeID{q.S, q.T}]
	}
	return res, Air{Outcome: Answered, Attempts: 1}
}

func sampleQuery(i int) (q metrics.Query) {
	q.TuningPackets = 10 + i%50
	q.LatencyPackets = 100 + i%300
	q.PeakMemBytes = 1 << 10
	return q
}
