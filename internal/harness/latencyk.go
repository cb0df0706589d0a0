package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/build"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/workload"
)

// LatencyVsKRow is one cell of the latency-versus-channels sweep: means
// over the workload, in packets (latency on the global clock) and channel
// hops per query.
type LatencyVsKRow struct {
	Network     string
	K           int
	MeanLatency float64
	MeanTuning  float64
	MeanHops    float64
}

// LatencyVsK sweeps K in {1,2,4} over the five harness networks with NR at
// 15% packet loss, offline and deterministic: the multi-channel latency
// table of EXPERIMENTS.md "Latency vs K", pinned row for row by
// TestLatencyVsKGolden.
func LatencyVsK(cfg Config) ([]LatencyVsKRow, error) {
	cfg = cfg.Defaults()
	const loss = 0.15
	cfg.printf("Latency vs K — NR at %.0f%% loss, offline (scale %.2f, %d queries, seed %d)\n",
		loss*100, cfg.Scale, cfg.Queries, cfg.Seed)
	cfg.printf("%-14s %4s %14s %14s %12s %8s\n", "network", "K", "mean latency", "mean tuning", "hops/query", "vs K=1")
	var rows []LatencyVsKRow
	for _, p := range netgen.Presets {
		preset := p.Name
		g, _, err := cfg.network(preset)
		if err != nil {
			return nil, err
		}
		srv, err := cfg.server(g, preset, build.NR, cfg.params(g, build.NR), nil)
		if err != nil {
			return nil, err
		}
		w := workload.Generate(g, cfg.Queries, srv.Cycle().Len(), cfg.Seed)
		var base float64
		for _, k := range []int{1, 2, 4} {
			plan, err := multichannel.Build(srv.Cycle(), k, multichannel.PlanOptions{})
			if err != nil {
				return nil, err
			}
			air, err := multichannel.NewAir(plan, loss, 7)
			if err != nil {
				return nil, err
			}
			client := srv.NewClient()
			rng := rand.New(rand.NewSource(5))
			sumLat, sumTun, hops := 0.0, 0.0, 0
			for qi, q := range w.Queries {
				tuner, rx, err := air.Tuner(q.TuneIn, multichannel.RxOptions{Channel: rng.Intn(k)})
				if err != nil {
					return nil, err
				}
				res, err := client.Query(tuner, q.Query)
				if err != nil {
					return nil, fmt.Errorf("%s K=%d query %d: %w", preset, k, qi, err)
				}
				if !workload.SameDist(res.Dist, q.RefDist) {
					return nil, fmt.Errorf("%s K=%d query %d: wrong distance", preset, k, qi)
				}
				sumLat += float64(res.Metrics.LatencyPackets)
				sumTun += float64(res.Metrics.TuningPackets)
				hops += rx.Hops()
			}
			n := float64(len(w.Queries))
			row := LatencyVsKRow{
				Network: preset, K: k,
				MeanLatency: sumLat / n, MeanTuning: sumTun / n, MeanHops: float64(hops) / n,
			}
			if k == 1 {
				base = row.MeanLatency
			}
			rows = append(rows, row)
			cfg.printf("%-14s %4d %14.0f %14.0f %12.2f %8.2f\n",
				row.Network, row.K, row.MeanLatency, row.MeanTuning, row.MeanHops, row.MeanLatency/base)
		}
	}
	return rows, nil
}
