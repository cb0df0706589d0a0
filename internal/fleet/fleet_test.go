package fleet

import (
	"context"
	"math"
	"sync"
	"testing"

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

// TestAggregatorMultiMergeEquivalence feeds identical multi-channel samples
// into a 64-shard and a single-shard aggregator concurrently: the two must
// summarize identically (shard merging loses nothing), including the
// per-channel breakdown.
func TestAggregatorMultiMergeEquivalence(t *testing.T) {
	sharded := NewAggregator(64, 2_000_000)
	single := NewAggregator(1, 2_000_000)
	const workers, each = 200, 50
	for _, agg := range []*Aggregator{sharded, single} {
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					per := []int{id % 7, i % 5, (id + i) % 3, 1}
					agg.Add(id, sampleQuery(id*each+i), Air{PerChannel: per, Hops: i % 4})
				}
			}(wkr)
		}
		wg.Wait()
	}
	a, b := sharded.Summarize(), single.Summarize()
	if a.Queries != b.Queries || a.Agg != b.Agg {
		t.Errorf("aggregates diverge: %+v vs %+v", a.Agg, b.Agg)
	}
	if a.Tuning != b.Tuning || a.Latency != b.Latency || a.Energy != b.Energy {
		t.Errorf("quantiles diverge")
	}
	if a.MeanHops != b.MeanHops {
		t.Errorf("mean hops %v vs %v", a.MeanHops, b.MeanHops)
	}
	if len(a.Channels) != len(b.Channels) {
		t.Fatalf("channel counts %d vs %d", len(a.Channels), len(b.Channels))
	}
	for c := range a.Channels {
		if a.Channels[c] != b.Channels[c] {
			t.Errorf("channel %d stats diverge: %+v vs %+v", c, a.Channels[c], b.Channels[c])
		}
	}
}

// TestSummarizeAllErrors pins the zero-completed-queries path: a run where
// every query failed must summarize to zero quantiles, zero means and zero
// QPS — finite numbers everywhere, nothing NaN, no division by the
// completed-query count.
func TestSummarizeAllErrors(t *testing.T) {
	agg := NewAggregator(8, 2_000_000)
	for w := 0; w < 16; w++ {
		agg.Add(w, metrics.Query{}, Air{Outcome: Failed})
	}
	res := agg.Summarize()
	if res.Queries != 16 || res.Errors != 16 || res.Agg.N != 0 {
		t.Fatalf("queries %d errors %d n %d", res.Queries, res.Errors, res.Agg.N)
	}
	for name, v := range map[string]float64{
		"qps": res.QPS, "meanEnergy": res.MeanEnergy, "meanHops": res.MeanHops,
		"tuning p50": res.Tuning.P50, "latency p99": res.Latency.P99, "energy p95": res.Energy.P95,
		"mean tuning": res.Agg.MeanTuning(), "mean latency": res.Agg.MeanLatency(),
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

// TestAggregatorConcurrent hammers one aggregator from many goroutines; the
// race detector checks the sharding, the totals check no sample is lost.
func TestAggregatorConcurrent(t *testing.T) {
	agg := NewAggregator(8, 2_000_000)
	const workers, each = 32, 200
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%10 == 9 {
					agg.Add(id, metrics.Query{}, Air{Outcome: Failed})
				} else {
					agg.Add(id, sampleQuery(i), Air{})
				}
			}
		}(wkr)
	}
	wg.Wait()
	res := agg.Summarize()
	if res.Queries != workers*each {
		t.Errorf("queries %d, want %d", res.Queries, workers*each)
	}
	if res.Errors != workers*each/10 {
		t.Errorf("errors %d, want %d", res.Errors, workers*each/10)
	}
	if res.Agg.N != workers*each*9/10 {
		t.Errorf("agg n %d", res.Agg.N)
	}
	if res.Tuning.P50 <= 0 || res.Tuning.P99 < res.Tuning.P50 {
		t.Errorf("tails %+v", res.Tuning)
	}
}

func sampleQuery(i int) (q metrics.Query) {
	q.TuningPackets = 10 + i%50
	q.LatencyPackets = 100 + i%300
	q.PeakMemBytes = 1 << 10
	return q
}
