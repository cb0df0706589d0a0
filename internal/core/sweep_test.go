package core

import (
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/workload"
)

// TestRandomizedParameterSweep quick-checks EB and NR over randomized
// network sizes, region counts, loss rates, options and tune-in positions:
// whatever the parameters, on-air answers must match the full-network
// reference. This is the repository's broadest correctness property.
func TestRandomizedParameterSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2010))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		nodes := 150 + rng.Intn(500)
		edges := nodes + rng.Intn(nodes/2)
		regions := []int{4, 8, 16}[rng.Intn(3)]
		loss := []float64{0, 0, 0.02, 0.10}[rng.Intn(4)]
		opts := Options{
			Regions:     regions,
			Segments:    rng.Intn(2) == 0,
			SquareCells: rng.Intn(2) == 0,
			MemoryBound: rng.Intn(3) == 0,
		}
		g := testNetwork(t, nodes, edges, int64(trial)*31+7)

		for _, build := range []func() (scheme.Server, error){
			func() (scheme.Server, error) { return NewEB(g, opts) },
			func() (scheme.Server, error) { return NewNR(g, opts) },
		} {
			srv, err := build()
			if err != nil {
				t.Fatalf("trial %d (%+v): %v", trial, opts, err)
			}
			ch, err := broadcast.NewChannel(srv.Cycle(), loss, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			client := srv.NewClient()
			for q := 0; q < 5; q++ {
				s := graph.NodeID(rng.Intn(nodes))
				d := graph.NodeID(rng.Intn(nodes))
				tuner := broadcast.NewTuner(ch, rng.Intn(srv.Cycle().Len()))
				res, err := client.Query(tuner, scheme.QueryFor(g, s, d))
				if err != nil {
					t.Fatalf("trial %d %s (%+v, loss %.2f) query %d->%d: %v",
						trial, srv.Name(), opts, loss, s, d, err)
				}
				want, _, _ := spath.PointToPoint(g, s, d)
				if !workload.SameDist(res.Dist, want) {
					t.Fatalf("trial %d %s (%+v, loss %.2f) query %d->%d: got %v, want %v",
						trial, srv.Name(), opts, loss, s, d, res.Dist, want)
				}
			}
		}
	}
}
