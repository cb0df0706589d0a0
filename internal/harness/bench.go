package harness

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/build"
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/station"
	"repro/internal/workload"
)

// Benchmark bodies shared by the root bench suite (`go test -bench`) and
// cmd/airbench's baseline emitter (testing.Benchmark), so the committed
// BENCH_baseline.json measures exactly what the benchmarks measure.

// benchSetup builds the standard bench fixture: a deployment of the germany
// preset at a bench-friendly scale with an NR server, in the given shape
// (default: the offline single channel), and its 40-query workload. Graph,
// build and workload go through the shared server cache — the three micro
// benches measure the serving path, not the build, so they share one cycle
// like any other cache consumer.
func benchSetup(scale float64, regions int, shape ...deploy.Option) (*deploy.Deployment, *workload.Workload, error) {
	cfg := Config{Preset: "germany", Scale: scale, Seed: 2010}
	g, _, err := cfg.network(cfg.Preset)
	if err != nil {
		return nil, nil, err
	}
	d, err := deploy.Deploy(g, append([]deploy.Option{
		deploy.WithMethod(deploy.NR), deploy.WithParams(deploy.Params{Regions: regions}), deploy.WithCache(cfg.netKey(cfg.Preset)),
	}, shape...)...)
	if err != nil {
		return nil, nil, err
	}
	return d, d.Workload(fleet.Options{Queries: 40, Seed: 2010}), nil
}

// BenchTunerHop measures one channel-hopping query end to end on a
// 4-channel offline air: directory lookups, hop arithmetic and the greedy
// reception path.
func BenchTunerHop(b *testing.B) {
	d, w, err := benchSetup(0.05, 32)
	if err != nil {
		b.Fatal(err)
	}
	srv := d.Server()
	plan, err := multichannel.Build(srv.Cycle(), 4, multichannel.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	air, err := multichannel.NewAir(plan, 0.05, 7)
	if err != nil {
		b.Fatal(err)
	}
	client := srv.NewClient()
	hops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%len(w.Queries)]
		tuner, rx, err := air.Tuner(q.TuneIn+i, multichannel.RxOptions{Channel: i % 4})
		if err != nil {
			b.Fatal(err)
		}
		res, err := client.Query(tuner, q.Query)
		if err != nil {
			b.Fatal(err)
		}
		if !workload.SameDist(res.Dist, q.RefDist) {
			b.Fatalf("wrong distance")
		}
		hops += rx.Hops()
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/query")
}

// BenchStationBroadcast measures raw shared-clock transmission: how fast a
// 4-shard station pushes global ticks to one subscribed radio.
func BenchStationBroadcast(b *testing.B) {
	d, _, err := benchSetup(0.05, 32)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := multichannel.Build(d.Server().Cycle(), 4, multichannel.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mst, err := multichannel.NewStation(plan, station.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := mst.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer mst.Stop()
	rx, err := mst.Subscribe(0, 1, multichannel.RxOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	start := rx.StartPos()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.At(start + i)
	}
}

// BenchLiveQuery measures one live K=1 session query end to end: attach to
// a virtual-clock station, an NR query with every doze the client takes
// (≈ 9 of 10 positions it spans), release, answer verified. It is the
// station's cost per query as a session pays it — clock holds, fast-forward
// over the dozes and window delivery — beside StationBroadcast's raw tick
// and FleetQPS's contended fleet.
func BenchLiveQuery(b *testing.B) {
	d, w, err := benchSetup(0.05, 32, deploy.WithLive(station.Config{}), deploy.WithLoss(0.05, 7))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Start(ctx); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	sess, err := d.Session(ctx, deploy.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchSessionQueries(b, sess, w)
}

// benchSessionQueries is the timed part of the session benches: b.N
// verified queries of the fixture workload through one open session.
func benchSessionQueries(b *testing.B, sess *deploy.Session, w *workload.Workload) {
	ctx := context.Background()
	tuning := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%len(w.Queries)]
		res, err := sess.Query(ctx, q.S, q.T)
		if err != nil {
			b.Fatal(err)
		}
		if !workload.SameDist(res.Dist, q.RefDist) {
			b.Fatalf("wrong distance")
		}
		tuning += res.Metrics.TuningPackets
	}
	b.ReportMetric(float64(tuning)/float64(b.N), "tuning-packets/query")
}

// BenchWireQuery measures BenchLiveQuery's query one transport further out:
// the live K=1 deployment is served over loopback UDP (ServeWire) and the
// session belongs to a WithRemote deployment, so on top of the station every
// query pays a dial and the framed datagram stream with its CRCs — pump,
// socket and receiver.
func BenchWireQuery(b *testing.B) {
	server, w, err := benchSetup(0.05, 32, deploy.WithLive(station.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	defer server.Close()
	bc, err := server.ServeWire(ctx, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer bc.Close()
	d, _, err := benchSetup(0.05, 32, deploy.WithRemote(bc.Addr().String()), deploy.WithLoss(0.05, 7))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	sess, err := d.Session(ctx, deploy.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchSessionQueries(b, sess, w)
}

// BenchFleetQPS measures end-to-end fleet throughput over a live 4-channel
// station: 32 concurrent clients, lossy air, every answer verified.
func BenchFleetQPS(b *testing.B) {
	d, w, err := benchSetup(0.05, 32, deploy.WithChannels(4), deploy.WithLive(station.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	qps := 0.0
	var lost, missed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Same seed and pool size as the fixture workload, so the fleet
		// answers the queries TunerHop does.
		res, err := d.RunFleet(context.Background(), fleet.Options{
			Clients: 32, Queries: 64, PoolSize: len(w.Queries), Loss: 0.02, Seed: 2010,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors > 0 {
			b.Fatalf("%d fleet errors", res.Errors)
		}
		qps = res.QPS
		lost, missed = res.LostPackets, res.MissedPackets
	}
	b.ReportMetric(qps, "queries/sec")
	// Simulator loss vs backpressure loss, distinguishable per run:
	// lost counts every corrupted reception, missed the subset caused by
	// backpressure drops the tuner listened for, so lost-missed is pure
	// simulator loss.
	b.ReportMetric(float64(lost), "lost-packets/run")
	b.ReportMetric(float64(missed), "missed-packets/run")
}

// LatencyVsKRow is one cell of the latency-versus-channels sweep.
type LatencyVsKRow struct {
	Network     string  `json:"network"`
	Method      string  `json:"method"`
	Loss        float64 `json:"loss"`
	K           int     `json:"k"`
	MeanLatency float64 `json:"mean_latency_packets"`
	MeanTuning  float64 `json:"mean_tuning_packets"`
	VsK1        float64 `json:"vs_k1"`
}

// LatencyVsK sweeps K in {1,2,4} over the five harness networks with NR
// under packet loss, offline and deterministic: the committed baseline for
// the multi-channel latency trajectory (EXPERIMENTS.md "Latency vs K").
func LatencyVsK(cfg Config) ([]LatencyVsKRow, error) {
	cfg = cfg.Defaults()
	var rows []LatencyVsKRow
	const loss = 0.15
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
			sumLat, sumTun := 0.0, 0.0
			for qi, q := range w.Queries {
				tuner, _, err := air.Tuner(q.TuneIn, multichannel.RxOptions{Channel: rng.Intn(k)})
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
			}
			n := float64(len(w.Queries))
			if k == 1 {
				base = sumLat / n
			}
			rows = append(rows, LatencyVsKRow{
				Network: preset, Method: srv.Name(), Loss: loss, K: k,
				MeanLatency: sumLat / n, MeanTuning: sumTun / n, VsK1: (sumLat / n) / base,
			})
		}
	}
	return rows, nil
}
