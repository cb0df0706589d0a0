package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro"
)

// sample is one posed query's outcome.
type sample struct {
	q       pair
	latency time.Duration // pose to answer, as the device sees it
	dist    float64
	path    []repro.NodeID
	m       repro.Metrics
	err     error
	// checked marks a sample verified inside its traced query span; settle
	// verifies the rest. bad is why verification failed, if it did.
	checked bool
	bad     error
	spans   querySpans // traced rounds only
}

// round is one measured window: perRound queries posed closed-loop, then
// verified outside the window.
type round struct {
	Traced   bool    `json:"traced"`
	Queries  int     `json:"queries"`
	Answered int     `json:"answered"`
	Failed   int     `json:"failed"`
	WallS    float64 `json:"wall_s"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	CPUUs    float64 `json:"client_cpu_us_mean"`
	// P95Beyond is how many samples lie above the reported p95.
	P95Beyond  int     `json:"p95_samples_beyond"`
	RebuildS   float64 `json:"rebuild_s,omitempty"`
	SwapMs     float64 `json:"swap_to_air_ms,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`

	sumTuning, sumLatency, sumPeakMem int64
	samples                           [][]sample
}

// verifier checks answers against Dijkstra on the network version they
// were computed on, memoizing references per version.
type verifier struct {
	g    *repro.Graph
	refs map[pair]float64
}

// use switches to network version g, dropping references of another one.
func (v *verifier) use(g *repro.Graph) {
	if v.g != g {
		v.g, v.refs = g, map[pair]float64{}
	}
}

// prime computes the references of qs not yet known, on every core: the
// reference Dijkstra costs more than most of the queries it checks.
func (v *verifier) prime(qs []pair) {
	var todo []pair
	seen := map[pair]bool{}
	for _, q := range qs {
		if _, ok := v.refs[q]; !ok && !seen[q] {
			seen[q] = true
			todo = append(todo, q)
		}
	}
	out := make([]float64, len(todo))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				out[i], _, _ = repro.ShortestPath(v.g, todo[i].s, todo[i].t)
			}
		}(w)
	}
	wg.Wait()
	for i, q := range todo {
		v.refs[q] = out[i]
	}
}

// check reports why a sample is wrong, or nil. The distance must match the
// reference within the float32 wire precision the fleet verifier allows,
// and the returned path must be a real s-t path of that length.
func (v *verifier) check(s *sample) error {
	if s.err != nil {
		return s.err
	}
	ref, ok := v.refs[s.q]
	if !ok {
		return fmt.Errorf("no reference for %d->%d", s.q.s, s.q.t)
	}
	const tol = 1e-3
	if rel := (s.dist - ref) / (1 + ref); math.IsNaN(rel) || rel > tol || rel < -tol {
		return fmt.Errorf("%d->%d: distance %v, reference %v", s.q.s, s.q.t, s.dist, ref)
	}
	if len(s.path) == 0 || s.path[0] != s.q.s || s.path[len(s.path)-1] != s.q.t {
		return fmt.Errorf("%d->%d: path does not join the endpoints", s.q.s, s.q.t)
	}
	sum := 0.0
	for i := 1; i < len(s.path); i++ {
		w, ok := v.g.ArcWeight(s.path[i-1], s.path[i])
		if !ok {
			return fmt.Errorf("%d->%d: path uses missing arc %d->%d", s.q.s, s.q.t, s.path[i-1], s.path[i])
		}
		sum += w
	}
	if rel := (sum - ref) / (1 + ref); rel > tol || rel < -tol {
		return fmt.Errorf("%d->%d: path length %v, reference %v", s.q.s, s.q.t, sum, ref)
	}
	return nil
}

// plan deals a block of queries round-robin to the clients.
func plan(block []pair, clients int) [][]pair {
	out := make([][]pair, clients)
	for i, q := range block {
		out[i%clients] = append(out[i%clients], q)
	}
	return out
}

// runRound poses one round of queries, one goroutine per client, each
// client posing its next query when the previous one is answered. ask
// answers query q for client c. Memory counters are read around the window
// and every sample buffer is allocated before it, so the deltas are the
// program's.
func runRound(queries [][]pair, ask func(c int, q pair, out *sample)) *round {
	r := &round{samples: make([][]sample, len(queries))}
	for c, qs := range queries {
		r.samples[c] = make([]sample, len(qs))
		r.Queries += len(qs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	var wg sync.WaitGroup
	for c := range queries {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range queries[c] {
				s := &r.samples[c][i]
				s.q = q
				ask(c, q, s)
			}
		}(c)
	}
	wg.Wait()
	r.WallS = time.Since(began).Seconds()
	runtime.ReadMemStats(&after)
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.Mallocs = after.Mallocs - before.Mallocs
	return r
}

// untracedAsk answers through the public Session path.
func untracedAsk(ctx context.Context, sessions []*repro.Session) func(int, pair, *sample) {
	return func(c int, q pair, out *sample) {
		began := time.Now()
		res, err := sessions[c].Query(ctx, q.s, q.t)
		out.latency = time.Since(began)
		out.dist, out.path, out.m, out.err = res.Dist, res.Path, res.Metrics, err
	}
}

// settle verifies the samples the round did not verify itself and folds
// them all into its statistics, logging the first few failures.
func (r *round) settle(v *verifier, logf func(string, ...any)) {
	var all []pair
	for _, cs := range r.samples {
		for i := range cs {
			all = append(all, cs[i].q)
		}
	}
	v.prime(all)
	var lat []float64
	var cpu time.Duration
	for _, cs := range r.samples {
		for i := range cs {
			s := &cs[i]
			if !s.checked {
				s.bad, s.checked = v.check(s), true
			}
			if s.bad != nil {
				if r.Failed < 5 {
					logf("FAILED query: %v", s.bad)
				}
				r.Failed++
				continue
			}
			r.Answered++
			lat = append(lat, float64(s.latency)/float64(time.Millisecond))
			cpu += s.m.CPU
			r.sumTuning += int64(s.m.TuningPackets)
			r.sumLatency += int64(s.m.LatencyPackets)
			r.sumPeakMem += int64(s.m.PeakMemBytes)
		}
	}
	sort.Float64s(lat)
	r.P50Ms, r.P95Ms = percentile(lat, 50), percentile(lat, 95)
	if n := len(lat); n > 0 {
		r.P95Beyond = n - int(math.Ceil(0.95*float64(n)))
		r.CPUUs = float64(cpu) / float64(time.Microsecond) / float64(n)
	}
	r.QPS = float64(r.Answered) / r.WallS
}
