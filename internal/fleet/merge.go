package fleet

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// MergeResults folds the Results of N concurrently-run fleets — typically
// one per OS process, all tuned to the same broadcaster — into one
// controller-level Result.
//
// Counts, the deterministic Agg factors, loss totals, and Pool (the total
// distinct-query capacity across parts) merge exactly. Elapsed is the
// longest part (the parts ran in parallel) and QPS is recomputed as total
// correct answers over that window, so a straggler process lowers
// throughput honestly. The tail summaries (Tuning, Latency, Energy) merge
// through the parts' fixed-layout histograms (metrics.Hist), so the merged
// p50/p95/p99 are true global quantiles to within one histogram bucket.
// MeanEnergy and MeanHops merge exactly (they are means).
//
// Per-channel stats are merged positionally; parts disagreeing on Method,
// Rate, or channel count are a caller bug and return an error, and so is a
// part not stamped ResultWireVersion or missing its histograms — the
// controller re-executes its own binary, so a mixed-version merge means the
// input is not a worker's result.
func MergeResults(parts []Result) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("fleet: no results to merge")
	}
	out := Result{Method: parts[0].Method, Rate: parts[0].Rate}
	var hTuning, hLatency, hEnergy metrics.Hist
	var sumEnergy, sumHops float64
	for i, p := range parts {
		if p.WireVersion != ResultWireVersion {
			return Result{}, fmt.Errorf("fleet: part %d has result wire version %d, want %d", i, p.WireVersion, ResultWireVersion)
		}
		if p.TuningHist == nil || p.LatencyHist == nil || p.EnergyHist == nil {
			return Result{}, fmt.Errorf("fleet: part %d carries no tail histograms", i)
		}
		if p.Method != out.Method {
			return Result{}, fmt.Errorf("fleet: merging %s result into %s run", p.Method, out.Method)
		}
		if p.Rate != out.Rate {
			return Result{}, fmt.Errorf("fleet: merging results costed at %d and %d bits/s", p.Rate, out.Rate)
		}
		if len(p.Channels) != len(parts[0].Channels) {
			return Result{}, fmt.Errorf("fleet: merging %d-channel result into %d-channel run",
				len(p.Channels), len(parts[0].Channels))
		}
		out.Clients += p.Clients
		out.Queries += p.Queries
		out.Errors += p.Errors
		out.Degraded += p.Degraded
		out.Refused += p.Refused
		out.LostPackets += p.LostPackets
		out.MissedPackets += p.MissedPackets
		// Pool sums: the controller-level report states total concurrent
		// distinct-query capacity, not the largest single part's.
		out.Pool += p.Pool
		out.Elapsed = maxDuration(out.Elapsed, p.Elapsed)
		out.Agg.Merge(p.Agg)
		n := p.Agg.N
		hTuning.Merge(p.TuningHist)
		hLatency.Merge(p.LatencyHist)
		hEnergy.Merge(p.EnergyHist)
		sumEnergy += p.MeanEnergy * float64(n)
		sumHops += p.MeanHops * float64(n)
		for c, ch := range p.Channels {
			if i == 0 {
				out.Channels = append(out.Channels, ChannelStats{Channel: ch.Channel})
			}
			out.Channels[c].Packets += ch.Packets
			out.Channels[c].Queries += ch.Queries
		}
	}
	out.Tuning = hTuning.Quantiles()
	out.Latency = hLatency.Quantiles()
	out.Energy = hEnergy.Quantiles()
	// Keep the merged histograms so a merge of merges stays exact.
	out.TuningHist, out.LatencyHist, out.EnergyHist = &hTuning, &hLatency, &hEnergy
	out.WireVersion = ResultWireVersion
	if out.Agg.N > 0 {
		out.MeanEnergy = sumEnergy / float64(out.Agg.N)
		out.MeanHops = sumHops / float64(out.Agg.N)
	}
	if out.Elapsed > 0 {
		out.QPS = float64(out.Agg.N) / out.Elapsed.Seconds()
		for c := range out.Channels {
			out.Channels[c].QPS = float64(out.Channels[c].Queries) / out.Elapsed.Seconds()
		}
	}
	return out, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
