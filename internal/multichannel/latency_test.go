package multichannel

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/workload"
)

// TestLatencyScalesWithChannels is the acceptance experiment for the
// multi-channel subsystem: on the Germany harness network under 15% packet
// loss, sharding NR's cycle across channels must cut mean access latency
// roughly linearly — at K=4 to at most half the K=1 latency — while every
// answer stays equal to the workload's Dijkstra reference. Loss recovery is
// where the sharding bites hardest: a lost packet's retry waits for the
// next occurrence on its shard, whose cycle is ~K times shorter than the
// logical one.
func TestLatencyScalesWithChannels(t *testing.T) {
	p, err := netgen.PresetByName("germany")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Scaled(0.1).Generate(2010)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewNR(g, core.Options{Regions: 32, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	const loss = 0.15
	w := workload.Generate(g, 30, srv.Cycle().Len(), 2010)

	mean := map[int]float64{}
	for _, k := range []int{1, 2, 4} {
		plan, err := Build(srv.Cycle(), k, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		air, err := NewAir(plan, loss, 7)
		if err != nil {
			t.Fatal(err)
		}
		client := srv.NewClient()
		rng := rand.New(rand.NewSource(5))
		sum := 0.0
		for qi, q := range w.Queries {
			tuner, _, err := air.Tuner(q.TuneIn, RxOptions{Channel: rng.Intn(k)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := client.Query(tuner, q.Query)
			if err != nil {
				t.Fatalf("K=%d query %d: %v", k, qi, err)
			}
			if !workload.SameDist(res.Dist, q.RefDist) {
				t.Fatalf("K=%d query %d: dist %v, want %v", k, qi, res.Dist, q.RefDist)
			}
			sum += float64(res.Metrics.LatencyPackets)
		}
		mean[k] = sum / float64(len(w.Queries))
	}
	t.Logf("mean access latency: K=1 %.0f, K=2 %.0f (%.2fx), K=4 %.0f (%.2fx)",
		mean[1], mean[2], mean[2]/mean[1], mean[4], mean[4]/mean[1])
	if mean[2] >= 0.8*mean[1] {
		t.Errorf("K=2 latency %.0f not under 0.8x of K=1 %.0f", mean[2], mean[1])
	}
	if mean[4] > 0.5*mean[1] {
		t.Errorf("K=4 latency %.0f exceeds 0.5x of K=1 %.0f", mean[4], mean[1])
	}
}
