package fleet

import (
	"fmt"
	"time"
)

// MergeResults folds the Results of N concurrently-run fleets — typically
// one per OS process, all tuned to the same broadcaster — into one
// controller-level Result, with the fold a run applies to its own workers:
// the parts' Partials sum (counts, the deterministic Agg factors, loss
// totals, every histogram) and every tail, mean and per-channel summary is
// re-derived from the sum, so a quantile is the true global one to within a
// histogram bucket and a mean is exact. Elapsed is the longest part (the
// parts ran in parallel) and QPS is total correct answers over that window,
// so a straggler process lowers throughput honestly; Clients and Pool (the
// total distinct-query capacity across parts) sum.
//
// A part is bytes this process did not write. One stamped with another
// ResultWireVersion, disagreeing on Method, Rate or channel count, whose
// outcome counts do not add up to its queries, or whose histograms are
// malformed or hold another number of samples than it answered queries is
// refused with an error naming it — the controller re-executes its own
// binary, so any of these means the input is not a worker's result.
func MergeResults(parts []Result) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("fleet: no results to merge")
	}
	first := &parts[0]
	partials := make([]*Partial, len(parts))
	var clients, pool int
	var elapsed time.Duration
	for i := range parts {
		p := &parts[i]
		if p.WireVersion != ResultWireVersion {
			return Result{}, fmt.Errorf("fleet: part %d has result wire version %d, want %d", i, p.WireVersion, ResultWireVersion)
		}
		if p.Method != first.Method {
			return Result{}, fmt.Errorf("fleet: part %d: merging %s result into %s run", i, p.Method, first.Method)
		}
		if p.Rate != first.Rate {
			return Result{}, fmt.Errorf("fleet: part %d: merging results costed at %d and %d bits/s", i, p.Rate, first.Rate)
		}
		if len(p.ChannelTuning) != len(first.ChannelTuning) {
			return Result{}, fmt.Errorf("fleet: part %d: merging %d-channel result into %d-channel run",
				i, len(p.ChannelTuning), len(first.ChannelTuning))
		}
		if err := p.check(); err != nil {
			return Result{}, fmt.Errorf("fleet: part %d: %w", i, err)
		}
		partials[i] = &p.Partial
		clients += p.Clients
		pool += p.Pool
		elapsed = max(elapsed, p.Elapsed)
	}
	out, err := fold(partials, elapsed)
	if err != nil {
		return Result{}, err
	}
	out.Method, out.Rate = first.Method, first.Rate
	out.Clients, out.Pool = clients, pool
	return out, nil
}

// check verifies the accounting a partial built by add satisfies by
// construction, on one that was decoded instead.
func (p *Partial) check() error {
	if p.Agg.N+p.Errors+p.Degraded+p.Refused != p.Queries {
		return fmt.Errorf("%d answered + %d errors + %d degraded + %d refused != %d queries",
			p.Agg.N, p.Errors, p.Degraded, p.Refused, p.Queries)
	}
	n := int64(p.Agg.N)
	if t, e, l := p.TuningHist.N(), p.EnergyHist.N(), p.CleanLatencyHist.N()+p.StaleLatencyHist.N(); t != n || e != n || l != n {
		return fmt.Errorf("histograms hold %d tuning, %d energy, %d latency samples for %d answered queries", t, e, l, n)
	}
	return nil
}
