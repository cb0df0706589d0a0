package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/precompute"
	"repro/internal/spath"
	"repro/internal/update"
	"repro/internal/workload"
)

// Staleness instruments (DESIGN.md §10): the churn-specific counters.
// stale/queries is the stale-query ratio EXPERIMENTS.md reads during churn.
var (
	obsStaleQueries = obs.GetCounter("air_fleet_stale_queries_total",
		"answered queries that straddled a cycle swap and re-entered")
	obsReentries = obs.GetCounter("air_fleet_reentries_total",
		"query attempts discarded because the version window mixed")
)

// ChurnOptions tunes an update-churn run: a fleet answering queries while a
// synthetic traffic feed mutates arc weights and the station swaps cycle
// versions underneath the clients.
type ChurnOptions struct {
	// Fleet carries the usual load parameters (clients, queries, loss, seed).
	Fleet Options
	// Batches is the number of update batches applied during the run
	// (default 4).
	Batches int
	// BatchSize is the number of arc-weight updates per batch (default 25).
	BatchSize int
	// Interval is the wall-clock pause between batches (default 10ms; the
	// updater also waits for each swap to reach the air before pausing).
	Interval time.Duration
	// Mode picks the weight-change profile (default mixed).
	Mode update.Mode
	// UpdateSeed seeds the synthetic traffic feed (default Fleet.Seed+1).
	UpdateSeed int64
}

// ChurnResult aggregates a churn run. The staleness accounting is the
// point: how many queries were caught by a swap, how many re-entries that
// cost, and what the latency penalty looks like against version-clean
// queries answered on the same air.
type ChurnResult struct {
	Result
	// Versions is the cycle version on the air when the run ended.
	Versions int
	// Swaps counts cycle swaps that reached the air during the run.
	Swaps int
	// StaleQueries counts answered queries that straddled at least one swap
	// (their version window widened and they re-entered; Result.Reentries
	// counts the attempts that cost).
	StaleQueries int
	// CleanLatency and StaleLatency split access latency (packets) by
	// whether the query straddled a swap — the tails of the Result's
	// CleanLatencyHist and StaleLatencyHist; the gap is the staleness
	// penalty.
	CleanLatency metrics.Quantiles
	StaleLatency metrics.Quantiles
	// MeanCleanLatency and MeanStaleLatency are the exact means of the same
	// samples (the EXPERIMENTS.md overhead table divides them).
	MeanCleanLatency float64
	MeanStaleLatency float64
	// UpdateErr is the first error the updater hit (a failed rebuild or a
	// failed swap); the broadcast kept serving the previous version, so the
	// answered queries are still verified, but the run churned less than
	// asked. Nil on a healthy run.
	UpdateErr error
}

// referenceDistances computes the workload's shortest-path references on
// one network version, fanned across all cores: the updater runs this
// between rebuilding and swapping, and a sequential loop here would
// stretch the effective update interval well past the configured one.
func referenceDistances(g *graph.Graph, w *workload.Workload) []float64 {
	out := make([]float64, len(w.Queries))
	precompute.ParallelFor(len(w.Queries), func(i int) {
		out[i], _, _ = spath.PointToPoint(g, w.Queries[i].S, w.Queries[i].T)
	})
	return out
}

// Swapper is the live station a churn run rolls cycle versions on
// (station.Station): Swap schedules a cycle and reports when it reached the
// air — closing the channel without a value if the station stopped first —
// and Version is the cycle version on the air.
type Swapper interface {
	Swap(*broadcast.Cycle) (<-chan int, error)
	Version() uint32
}

// RunChurn is Run while the network churns: the same runner, plus an
// updater goroutine that applies opts.Batches weight batches through mgr and
// swaps st to each new cycle version, plus one reference table entry per
// version. The target must already be on the air broadcasting mgr.Cycle().
// Every answered query is verified against the reference distance of the
// network version its (version-clean, possibly re-entered) answer was
// computed on.
func RunChurn(ctx context.Context, t Target, st Swapper, mgr *update.Manager, w *workload.Workload, opts ChurnOptions) (ChurnResult, error) {
	batches := opts.Batches
	if batches <= 0 {
		batches = 4
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = 25
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	updateSeed := opts.UpdateSeed
	if updateSeed == 0 {
		updateSeed = opts.Fleet.Seed + 1
	}
	// Base references come from the manager's current graph, not from the
	// workload's RefDist: the manager may already be past version 0 (prior
	// Applies), in which case the workload's references describe a network
	// no longer on the air.
	refs := &refTable{byVer: map[uint32][]float64{mgr.Version(): referenceDistances(mgr.Graph(), w)}}

	// The updater: mutate, rebuild, publish references, swap, wait for the
	// swap to reach the air, pause. It stops after its batches, on the
	// first failure (the old version stays on the air, so the run remains
	// correct — the error is surfaced in the result), or when the fleet
	// stops issuing. run waits for it, so the two results below are settled
	// when it returns.
	swaps := 0
	var updateErr error
	updater := func(ctx context.Context) {
		rng := rand.New(rand.NewSource(updateSeed))
		for b := 0; b < batches; b++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(interval):
			}
			build, err := mgr.Apply(update.RandomUpdates(mgr.Graph(), rng, batchSize, opts.Mode))
			if err != nil {
				updateErr = fmt.Errorf("fleet: churn batch %d: %w", b, err)
				return
			}
			refs.publish(build.Version, referenceDistances(build.Graph, w))
			applied, err := st.Swap(build.Cycle)
			if err != nil {
				updateErr = fmt.Errorf("fleet: churn swap to v%d: %w", build.Version, err)
				return
			}
			select {
			case _, ok := <-applied:
				if !ok {
					return // station stopped with the swap pending
				}
				swaps++
			case <-ctx.Done():
				return
			}
		}
	}

	res, err := run(ctx, t, w, opts.Fleet, refs, updater)
	if err != nil {
		return ChurnResult{}, err
	}
	// Versions reports the air, not the manager: a build that never swapped
	// in (or versions applied before this run started) would otherwise
	// inflate it.
	out := res.staleness()
	out.Versions, out.Swaps, out.UpdateErr = int(st.Version()), swaps, updateErr
	return out, nil
}

// staleness derives a churn run's clean/stale split from the result's two
// latency histograms.
func (r Result) staleness() ChurnResult {
	clean, stale := &r.CleanLatencyHist, &r.StaleLatencyHist
	return ChurnResult{
		Result:       r,
		StaleQueries: int(stale.N()),
		CleanLatency: clean.Quantiles(), MeanCleanLatency: clean.Mean(),
		StaleLatency: stale.Quantiles(), MeanStaleLatency: stale.Mean(),
	}
}
