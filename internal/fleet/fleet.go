// Package fleet drives a broadcast with a fleet of concurrent clients: a
// worker pool of N simulated mobile devices, each holding one Session on the
// air (deploy.Session behind the one-method interface declared here — deploy
// imports this package), that answer shortest-path queries from a workload
// mix, verify every answer against the reference of the cycle version it
// was computed on, and count their per-query measurements each into its own
// Partial; one fold sums the partials — workers of a run and worker
// processes of a fan-out alike — and derives means, p50/p95/p99 tails and
// end-to-end throughput from the summed histograms. There is one runner for
// every deployment shape; a churn run (RunChurn) is that runner plus an
// updater goroutine.
//
// This is the load-harness half of the live subsystem (internal/station is
// the other): where the offline harness (internal/harness) replays queries
// one at a time to reproduce the paper's figures, the fleet measures the
// one-to-many promise of the broadcast model — thousands of clients share
// the same air at zero marginal server cost, so queries/sec scales with
// client count until local CPU saturates.
package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Package-level instruments (DESIGN.md §10). Wall-clock only: the paper's
// deterministic factors (tuning, latency, energy) stay in metrics.Agg.
var (
	obsQueries = obs.GetCounter("air_fleet_queries_total",
		"queries issued by fleet workers")
	obsErrors = obs.GetCounter("air_fleet_errors_total",
		"fleet queries that failed, answered wrong, or never subscribed")
	obsInflight = obs.GetGauge("air_fleet_inflight_sessions",
		"fleet queries currently in flight")
	obsQuerySecs = obs.GetHistogram("air_fleet_query_seconds",
		"wall time per fleet query")
	obsLost = obs.GetCounter("air_fleet_lost_packets_total",
		"corrupted receptions observed by fleet tuners (simulator loss + backpressure)")
	obsMissed = obs.GetCounter("air_fleet_missed_packets_total",
		"backpressure drops served to fleet tuners as corrupted receptions (subset of lost)")
	obsDegraded = obs.GetCounter("air_fleet_degraded_total",
		"fleet queries aborted by a tuning or deadline budget (degraded answers)")
	obsRefused = obs.GetCounter("air_fleet_refused_total",
		"fleet queries refused by admission control (busy broadcaster or full station)")
)

// DefaultPoolSize is the distinct-query pool a run draws from when
// Options.PoolSize is zero: the paper's 400-query workload size. Reference
// answers cost one Dijkstra each, so the default bounds server-side setup
// time; runs asking for more queries reuse pool entries round-robin.
const DefaultPoolSize = 400

// Options tunes a fleet run. The zero value means 8 clients answering the
// whole workload once, lossless, costed at the station's rate.
type Options struct {
	// Clients is the number of concurrent clients (default 8).
	Clients int
	// Queries is the total number of queries the fleet answers; workload
	// entries are reused round-robin when it exceeds the workload size.
	// Default: one pass over the workload.
	Queries int
	// PoolSize is the number of distinct workload queries the run draws
	// from. Each distinct query costs one reference Dijkstra server-side,
	// so the default caps the pool at DefaultPoolSize (the paper's 400-query
	// workload) and reuses entries round-robin for larger Queries counts;
	// when that cap engages, the workload builder logs it and the Result
	// reports the effective pool in Result.Pool. Set PoolSize explicitly to
	// widen (or shrink) the distinct pool.
	PoolSize int
	// Duration optionally stops issuing new queries after this wall-clock
	// time; in-flight queries finish. 0 means no time limit.
	Duration time.Duration
	// Loss is each client's packet-loss rate in [0,1).
	Loss float64
	// Seed derives every client's private loss pattern.
	Seed int64
	// QueryDeadline bounds each query's wall-clock time; past it the query
	// is aborted and counted as degraded (Result.Degraded), never left
	// hanging. 0 = unlimited.
	QueryDeadline time.Duration
	// TuningBudget caps the packets each query's radio may receive — the
	// paper's energy knob. A query that exhausts it is counted as degraded.
	// 0 = unlimited.
	TuningBudget int
	// Wire carries the base dial options a fleet on a remote deployment
	// dials with — timeouts, retry/redial budgets, credit window. Loss and
	// Seed are overridden per client from the run's own Loss/Seed, exactly
	// like the in-process paths.
	Wire transport.DialOptions
}

// ChannelStats summarizes one channel of a multi-channel fleet run, derived
// from the channel's Partial.ChannelTuning histogram.
type ChannelStats struct {
	Channel int
	// Packets is the total packets the fleet received on this channel.
	Packets int64
	// Queries counts queries that received at least one packet here.
	Queries int
	// QPS is Queries per wall-clock second.
	QPS float64
	// Tuning summarizes per-query packets received on this channel, over
	// the queries that touched it.
	Tuning metrics.Quantiles
}

// ResultWireVersion is the version of Result's JSON wire format — the
// worker→controller contract of cmd/airfleet. Version 3 carries every
// distribution a Result reports as a metrics.Hist with its exact sum (clean
// and stale latency, hops and per-channel tuning joined tuning and energy);
// MergeResults refuses a part stamped with any other version.
const ResultWireVersion = 3

// Partial is the additive half of a Result — what one worker counts, and
// all that crosses the wire in substance: outcome counts, the paper's mean
// factors and one metrics.Hist per reported distribution. Partials sum
// (fold); everything else a Result says is derived from the sum.
type Partial struct {
	Queries int // queries issued (Errors/Degraded/Refused count failed subsets)
	Errors  int // failed, wrong-distance, or never-subscribed queries
	// Degraded counts queries aborted by the run's answer budgets
	// (QueryDeadline or TuningBudget); Refused counts queries shed by
	// admission control (busy broadcaster, full station). Both are disjoint
	// from Errors, so Agg.N + Errors + Degraded + Refused == Queries — no
	// outcome is ever silently dropped.
	Degraded int
	Refused  int

	// LostPackets counts receptions that arrived corrupted across every
	// query's tuner — injected simulator loss plus live backpressure drops.
	// MissedPackets is the backpressure subset: positions the tuner asked a
	// paced station for more than its Buffer behind the air, received as
	// corrupted. Positions the tuner slept over are not counted, so
	// MissedPackets <= LostPackets always holds and
	// LostPackets - MissedPackets is pure simulator loss.
	LostPackets   int64
	MissedPackets int64
	// Reentries counts query attempts discarded because a cycle swap caught
	// them; the staleness window of a swap is the span of queries it forces
	// through this path. Zero on a static broadcast.
	Reentries int

	// Agg carries the paper's mean factors over the correctly answered
	// queries (Agg.N of them).
	Agg metrics.Agg
	// One sample per answered query: packets received, joules at the run's
	// rate, and access latency in packets — split by whether the query
	// straddled a cycle swap and re-entered (the run's latency distribution
	// is the two merged).
	TuningHist       metrics.Hist
	EnergyHist       metrics.Hist
	CleanLatencyHist metrics.Hist
	StaleLatencyHist metrics.Hist
	// Multi-channel runs only: channel retunes per answered query, and per
	// channel the packets received by the queries that touched it (sized by
	// the first hopping query).
	HopsHist      metrics.Hist
	ChannelTuning []metrics.Hist `json:",omitempty"`
}

// Result is the aggregate outcome of a fleet run: the run's labels, the
// summed Partial, and the tails, means and rates fold derived from it.
type Result struct {
	// WireVersion stamps the JSON wire format this Result was produced
	// under (see ResultWireVersion).
	WireVersion int `json:",omitempty"`

	Method  string
	Clients int
	Pool    int // distinct workload queries the run drew from
	// Rate is the bit rate energy was costed at.
	Rate    int
	Elapsed time.Duration
	QPS     float64 // correctly answered queries per wall-clock second

	Partial

	// Tuning, Latency (packets) and Energy (joules at Rate) are the tail
	// summaries a load test reports, each within one histogram bucket (8%)
	// of the exact sample percentile; MeanEnergy is the exact mean of the
	// energy samples.
	Tuning     metrics.Quantiles
	Latency    metrics.Quantiles
	Energy     metrics.Quantiles
	MeanEnergy float64

	// Channels breaks reception down per broadcast channel (multi-channel
	// runs only; nil for a single-channel fleet), and MeanHops is the mean
	// channel retunes per answered query.
	Channels []ChannelStats
	MeanHops float64
}

// Outcome classifies how one query ended on the air, before the runner has
// verified its distance. The Session decides it — budgets, admission control
// and transport errors are its business — so the runner needs no knowledge
// of any transport's error values.
type Outcome uint8

const (
	// Answered: the scheme client returned an answer.
	Answered Outcome = iota
	// Failed: a scheme failure, a dead wire, a station off the air — and,
	// set by the runner, an answer whose distance is wrong.
	Failed
	// Degraded: the run's own answer budget fired (QueryDeadline or
	// TuningBudget).
	Degraded
	// Refused: admission control shed the query (busy broadcaster, full
	// station).
	Refused
)

// Air is what one query did on the air beyond its scheme metrics, summed
// over every feed the query attached (a swap can force a fresh one).
type Air struct {
	Outcome Outcome
	// Lost counts receptions that arrived corrupted; Missed is the subset
	// the air itself dropped (backpressure, wire gaps) — see Result.
	Lost, Missed int
	// PerChannel is packets received per channel and Hops the channel
	// retunes of a hopping radio; nil and zero on a single channel.
	PerChannel []int
	Hops       int
	// Attempts is how many times the client ran: 1 plus the attempts
	// discarded because a cycle swap caught them.
	Attempts int
	// Version is the cycle version the answer was computed on.
	Version uint32
}

// Session is one worker's handle on the air: ask a query, learn how it went.
type Session interface {
	Ask(ctx context.Context, q scheme.Query) (scheme.Result, Air)
}

// Target is the broadcast a run is pointed at.
type Target struct {
	// Method names the scheme, Rate is the bit rate energy is costed at, and
	// Version is the cycle version on the air when the run starts.
	Method  string
	Rate    int
	Version uint32
	// Open returns worker id's session; seed derives its private loss
	// pattern, one draw per query.
	Open func(id int, seed int64) (Session, error)
}

// add counts one query into the bucket air.Outcome names — so Agg.N + Errors
// + Degraded + Refused == Queries by construction — together with its
// air-level loss accounting, which is recorded for answered and failed
// queries alike: the packets were dropped either way. q is read only for an
// Answered query; rate costs its energy.
func (p *Partial) add(q metrics.Query, air Air, rate int) {
	p.Queries++
	if air.Lost != 0 || air.Missed != 0 {
		p.LostPackets += int64(air.Lost)
		p.MissedPackets += int64(air.Missed)
		obsLost.Add(int64(air.Lost))
		obsMissed.Add(int64(air.Missed))
	}
	switch air.Outcome {
	case Failed:
		p.Errors++
		obsErrors.Inc()
		return
	case Degraded:
		p.Degraded++
		obsDegraded.Inc()
		return
	case Refused:
		p.Refused++
		obsRefused.Inc()
		return
	}
	p.Agg.Add(q)
	p.TuningHist.Add(float64(q.TuningPackets))
	p.EnergyHist.Add(q.EnergyJoules(rate))
	if air.Attempts > 1 {
		p.StaleLatencyHist.Add(float64(q.LatencyPackets))
		p.Reentries += air.Attempts - 1
		obsStaleQueries.Inc()
		obsReentries.Add(int64(air.Attempts - 1))
	} else {
		p.CleanLatencyHist.Add(float64(q.LatencyPackets))
	}
	if air.PerChannel == nil {
		return
	}
	p.HopsHist.Add(float64(air.Hops))
	for len(p.ChannelTuning) < len(air.PerChannel) {
		p.ChannelTuning = append(p.ChannelTuning, metrics.Hist{})
	}
	for c, n := range air.PerChannel {
		if n != 0 {
			p.ChannelTuning[c].Add(float64(n))
		}
	}
}

// hists lists the partial's histograms in a fixed order, the channels last.
func (p *Partial) hists() []*metrics.Hist {
	out := []*metrics.Hist{&p.TuningHist, &p.EnergyHist, &p.CleanLatencyHist, &p.StaleLatencyHist, &p.HopsHist}
	for c := range p.ChannelTuning {
		out = append(out, &p.ChannelTuning[c])
	}
	return out
}

// merge adds o into p. A malformed histogram in o is refused by
// metrics.Hist.Merge; p is then half-merged and must be dropped.
func (p *Partial) merge(o *Partial) error {
	p.Queries += o.Queries
	p.Errors += o.Errors
	p.Degraded += o.Degraded
	p.Refused += o.Refused
	p.LostPackets += o.LostPackets
	p.MissedPackets += o.MissedPackets
	p.Reentries += o.Reentries
	p.Agg.Merge(o.Agg)
	for len(p.ChannelTuning) < len(o.ChannelTuning) {
		p.ChannelTuning = append(p.ChannelTuning, metrics.Hist{})
	}
	dst := p.hists()
	for i, h := range o.hists() {
		if err := dst[i].Merge(h); err != nil {
			return err
		}
	}
	return nil
}

// fold is the one merge: it sums parts and derives every tail, mean and rate
// a Result reports from the summed histograms, over the given wall-clock
// window. run folds its workers' partials with it and MergeResults the
// worker processes', so one process and N report the same numbers for the
// same samples. A run where every query errored (Agg.N == 0) folds to
// all-zero quantiles and means — metrics.Hist and Agg guard their empty
// cases. The caller fills the run's labels (Method, Clients, Pool, Rate).
func fold(parts []*Partial, elapsed time.Duration) (Result, error) {
	r := Result{WireVersion: ResultWireVersion, Elapsed: elapsed}
	for i, p := range parts {
		if err := r.Partial.merge(p); err != nil {
			return Result{}, fmt.Errorf("fleet: part %d: %w", i, err)
		}
	}
	var latency metrics.Hist
	for _, h := range []*metrics.Hist{&r.CleanLatencyHist, &r.StaleLatencyHist} {
		if err := latency.Merge(h); err != nil {
			return Result{}, fmt.Errorf("fleet: latency: %w", err)
		}
	}
	r.Tuning = r.TuningHist.Quantiles()
	r.Latency = latency.Quantiles()
	r.Energy, r.MeanEnergy = r.EnergyHist.Quantiles(), r.EnergyHist.Mean()
	r.MeanHops = r.HopsHist.Mean()
	// Rates count correct answers only, so a degraded run (loss, station
	// going off the air) cannot overstate itself.
	perSec := func(n int) float64 {
		if elapsed <= 0 {
			return 0
		}
		return float64(n) / elapsed.Seconds()
	}
	r.QPS = perSec(r.Agg.N)
	for c := range r.ChannelTuning {
		h := &r.ChannelTuning[c]
		r.Channels = append(r.Channels, ChannelStats{
			Channel: c, Packets: int64(h.Sum), Queries: int(h.N()), QPS: perSec(int(h.N())), Tuning: h.Quantiles(),
		})
	}
	return r, nil
}

// Run drives w's queries through a fleet of opts.Clients concurrent clients
// of the target, which must already be on the air. Every query is answered
// through the worker's session, verified against the workload's reference
// distance, and folded into the result with its air-level accounting.
func Run(ctx context.Context, t Target, w *workload.Workload, opts Options) (Result, error) {
	base := make([]float64, len(w.Queries))
	for i, q := range w.Queries {
		base[i] = q.RefDist
	}
	refs := &refTable{byVer: map[uint32][]float64{t.Version: base}}
	return run(ctx, t, w, opts, refs, nil)
}

// clientSeed derives client id's private RNG seed from the run seed with the
// splitmix64 finalizer over both words. The obvious additive form
// (seed + id*constant) aliases across runs — client 1 of run S draws the
// same loss pattern as client 0 of run S+constant — so nearby run seeds
// share device behavior instead of being independent; the mix makes every
// (seed, id) pair land in an unrelated part of the sequence space.
func clientSeed(seed int64, id int) int64 {
	return int64(broadcast.SplitMix64(uint64(seed) + uint64(id)*0x9E3779B97F4A7C15))
}

// refTable maps cycle versions to per-workload-query reference distances. A
// static run holds one entry; a churn run's updater publishes a version's
// references before swapping the station to it, so a worker verifying
// against the version its answer reports always finds them.
type refTable struct {
	mu    sync.RWMutex
	byVer map[uint32][]float64
}

func (r *refTable) publish(ver uint32, refs []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byVer[ver] = refs
}

func (r *refTable) get(ver uint32, i int) (float64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	refs, ok := r.byVer[ver]
	if !ok {
		return 0, false
	}
	return refs[i], true
}

// run is the fleet engine: the work queue, the worker pool, the per-query
// verification and the run-level summary. updater, when set, runs beside
// the fleet (a churn run's traffic feed) under a context that ends when the
// fleet stops issuing; run waits for it.
func run(ctx context.Context, t Target, w *workload.Workload, opts Options, refs *refTable,
	updater func(context.Context)) (Result, error) {
	if len(w.Queries) == 0 {
		return Result{}, fmt.Errorf("fleet: empty workload")
	}
	if opts.Loss < 0 || opts.Loss >= 1 {
		return Result{}, fmt.Errorf("fleet: loss rate %v outside [0,1)", opts.Loss)
	}
	clients := opts.Clients
	if clients <= 0 {
		clients = 8
	}
	total := opts.Queries
	if total <= 0 {
		total = len(w.Queries)
	}

	// Each client is one device: its own session (scheme client reused
	// across its queries, like a phone keeps its app open) and its own
	// deterministic loss seed.
	sessions := make([]Session, clients)
	for id := range sessions {
		s, err := t.Open(id, clientSeed(opts.Seed, id))
		if err != nil {
			return Result{}, fmt.Errorf("fleet: client %d: %w", id, err)
		}
		sessions[id] = s
	}

	// issuing ends when the run should stop handing out work: the caller's
	// context, the Duration limit, or the last worker returning. Queries
	// already in flight run under ctx itself, so they finish.
	issuing, stop := context.WithCancel(ctx)
	defer stop()
	if opts.Duration > 0 {
		var cancel context.CancelFunc
		issuing, cancel = context.WithTimeout(issuing, opts.Duration)
		defer cancel()
	}
	var side sync.WaitGroup
	if updater != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			updater(issuing)
		}()
	}

	// The work queue: workload indices round-robin until total queries have
	// been issued or the clock/context stops the run.
	work := make(chan int)
	go func() {
		defer close(work)
		for i := 0; i < total; i++ {
			select {
			case work <- i % len(w.Queries):
			case <-issuing.Done():
				return
			}
		}
	}()

	// Every worker counts into its own partial: nothing is shared while
	// queries run, and the fold below is the one a controller applies to
	// worker processes.
	parts := make([]*Partial, clients)
	started := time.Now()
	var wg sync.WaitGroup
	for id, s := range sessions {
		part := new(Partial)
		parts[id] = part
		wg.Add(1)
		go func(s Session) {
			defer wg.Done()
			for qi := range work {
				obsQueries.Inc()
				obsInflight.Inc()
				qStart := time.Now()
				res, air := ask(ctx, s, qi, w.Queries[qi], refs)
				part.add(res.Metrics, air, t.Rate)
				obsQuerySecs.Observe(time.Since(qStart).Seconds())
				obsInflight.Dec()
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(started)
	stop()
	side.Wait()

	res, err := fold(parts, elapsed)
	if err != nil {
		return Result{}, err
	}
	res.Method, res.Rate = t.Method, t.Rate
	res.Clients = clients
	res.Pool = len(w.Queries)
	return res, nil
}

// ask answers workload query qi on the worker's session. The answer is
// verified against the reference of the cycle version it was computed on; a
// version whose references were never published would be a swap that
// bypassed the updater, counted loudly as an error.
func ask(ctx context.Context, s Session, qi int, q workload.Query, refs *refTable) (scheme.Result, Air) {
	res, air := s.Ask(ctx, q.Query)
	if air.Outcome == Answered {
		if ref, ok := refs.get(air.Version, qi); !ok || !workload.SameDist(res.Dist, ref) {
			air.Outcome = Failed
		}
	}
	return res, air
}
