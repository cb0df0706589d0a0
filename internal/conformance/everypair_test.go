package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/transport"
)

// TestEveryPairExact answers every ordered pair of nodes on three of the
// paper's networks at Preset.Scaled's 64-node floor, with all seven methods,
// at K=1 and K=4 through the one offline air, lossless and at 5% loss. Every
// answer must be the reference's: the distance within workload.SameDist's
// 2⁻²³, and a returned path the reference path (wrongAnswer). Sampled
// workloads miss a method that prunes a needed region for one pair; every
// pair does not. -short runs one network.
func TestEveryPairExact(t *testing.T) {
	presets := netgen.Presets[:3]
	if testing.Short() {
		presets = presets[:1]
	}
	for _, p := range presets {
		p := p.Scaled(1e-6)
		g, err := p.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		want := make([]float64, n*n)
		wantPath := make([][]graph.NodeID, n*n)
		for s := range n {
			for d := range n {
				want[s*n+d], wantPath[s*n+d], _ = spath.PointToPoint(g, graph.NodeID(s), graph.NodeID(d))
			}
		}
		for _, m := range fuzzSchemes {
			t.Run(fmt.Sprintf("%s/%s", p.Name, m), func(t *testing.T) {
				t.Parallel()
				srv, err := build.Server(build.Request{Graph: g, Method: m, Params: build.Params{Regions: 8}})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 4} {
					for _, loss := range []float64{0, 0.05} {
						air, err := transport.NewOfflineAir(srv.Cycle(), k, loss, 1)
						if err != nil {
							t.Fatal(err)
						}
						rng := rand.New(rand.NewSource(int64(k)))
						client := srv.NewClient()
						for s := range n {
							for d := range n {
								att, err := air.Attach(transport.Tune{Cursor: rng.Intn(k * srv.Cycle().Len()), Channel: rng.Intn(k)})
								if err != nil {
									t.Fatal(err)
								}
								tuner := att.Tuner()
								res, err := client.Query(tuner, scheme.QueryFor(g, graph.NodeID(s), graph.NodeID(d)))
								att.Release(tuner.Pos())
								if err != nil {
									t.Fatalf("K=%d loss=%v %d->%d: %v", k, loss, s, d, err)
								}
								if msg := wrongAnswer(g, graph.NodeID(s), graph.NodeID(d), res, want[s*n+d], wantPath[s*n+d], m == build.HiTi); msg != "" {
									t.Fatalf("K=%d loss=%v %d->%d: %s", k, loss, s, d, msg)
								}
							}
						}
					}
				}
			})
		}
	}
}
