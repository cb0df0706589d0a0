package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/station"
)

// ChurnRow is one cell of the update-churn sweep: a live fleet answering
// queries while the broadcast rolls through cycle versions at one update
// rate.
type ChurnRow struct {
	Network     string  `json:"network"`
	Method      string  `json:"method"`
	IntervalMS  float64 `json:"interval_ms"`
	Queries     int     `json:"queries"`
	Errors      int     `json:"errors"`
	Versions    int     `json:"versions"`
	Swaps       int     `json:"swaps"`
	Stale       int     `json:"stale_queries"`
	StalePct    float64 `json:"stale_pct"`
	Reentries   int     `json:"reentries"`
	CleanP50    float64 `json:"clean_latency_p50"`
	StaleP50    float64 `json:"stale_latency_p50"`
	MeanClean   float64 `json:"mean_clean_latency"`
	MeanStale   float64 `json:"mean_stale_latency"`
	OverheadPct float64 `json:"stale_overhead_pct"`
	QPS         float64 `json:"qps"`
}

// Churn runs the dynamic-network scenario (airbench -exp churn): an NR
// broadcast of the configured preset on a live virtual-clock station, a
// fleet of clients under loss, and a synthetic traffic feed mutating arc
// weights — swept over update intervals from leisurely to aggressive. The
// staleness window shows up as the fraction of queries forced to re-enter
// and their latency penalty against version-clean queries on the same air.
func Churn(cfg Config) ([]ChurnRow, error) {
	cfg = cfg.Defaults()
	g, _, err := cfg.network(cfg.Preset)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Out, "Update churn — %s x%.2g (%d nodes), NR, %d clients, loss 5%%\n",
		cfg.Preset, cfg.Scale, g.NumNodes(), 16)
	fmt.Fprintf(cfg.Out, "%-12s %8s %8s %8s %9s %10s %10s %10s %8s\n",
		"interval", "queries", "swaps", "stale", "stale%", "clean p50", "stale p50", "overhead", "qps")

	var rows []ChurnRow
	for _, interval := range []time.Duration{50 * time.Millisecond, 20 * time.Millisecond, 5 * time.Millisecond} {
		// One base build for the whole sweep (WithCache): it is immutable —
		// each interval gets its own manager and station on top of it — so
		// rebuilding it per interval would only repeat the border
		// pre-computation.
		d, err := deploy.Deploy(g,
			deploy.WithMethod(deploy.NR), deploy.WithParams(cfg.params(g, deploy.NR)),
			deploy.WithCache(cfg.netKey(cfg.Preset)), deploy.WithLive(station.Config{}),
			deploy.WithUpdates(deploy.UpdateConfig{Batches: 6, BatchSize: 25, Interval: interval}))
		if err != nil {
			return nil, err
		}
		rep, err := d.RunFleet(context.Background(), fleet.Options{
			Clients: 16, Queries: cfg.Queries, PoolSize: min(cfg.Queries, 100), Loss: 0.05, Seed: cfg.Seed,
		})
		d.Close()
		if err != nil {
			return nil, err
		}
		res := rep.Churn
		row := ChurnRow{
			Network:    cfg.Preset,
			Method:     res.Method,
			IntervalMS: float64(interval) / float64(time.Millisecond),
			Queries:    res.Queries,
			Errors:     res.Errors,
			Versions:   res.Versions,
			Swaps:      res.Swaps,
			Stale:      res.StaleQueries,
			Reentries:  res.Reentries,
			CleanP50:   res.CleanLatency.P50,
			StaleP50:   res.StaleLatency.P50,
			MeanClean:  res.MeanCleanLatency,
			MeanStale:  res.MeanStaleLatency,
			QPS:        res.QPS,
		}
		if res.Agg.N > 0 {
			row.StalePct = 100 * float64(res.StaleQueries) / float64(res.Agg.N)
		}
		if row.MeanClean > 0 && row.MeanStale > 0 {
			row.OverheadPct = 100 * (row.MeanStale/row.MeanClean - 1)
		}
		rows = append(rows, row)
		overhead := "-"
		if row.OverheadPct != 0 {
			overhead = fmt.Sprintf("%+.0f%%", row.OverheadPct)
		}
		fmt.Fprintf(cfg.Out, "%-12s %8d %8d %8d %8.1f%% %10.0f %10.0f %10s %8.0f\n",
			interval, row.Queries, row.Swaps, row.Stale, row.StalePct,
			row.CleanP50, row.StaleP50, overhead, row.QPS)
		if res.Errors > 0 {
			return rows, fmt.Errorf("harness: churn at %v: %d queries failed verification", interval, res.Errors)
		}
		if res.UpdateErr != nil {
			return rows, fmt.Errorf("harness: churn at %v: %w", interval, res.UpdateErr)
		}
	}
	return rows, nil
}
