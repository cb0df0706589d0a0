package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// TestClientSearchMatchesOracle: the clients' last step is the chain-walking
// search over the sub-network they collected. On two networks, over a lossy
// offline channel, each NR and EB answer must equal — Dist bit for bit, Path
// node for node — the heap loop run over that same collected network.
// DijkstraNetworkFiltered with every arc allowed is that heap loop: every
// improved node goes through the heap, and the search stops when t pops.
func TestClientSearchMatchesOracle(t *testing.T) {
	every := func(graph.NodeID, int) bool { return true }
	for _, seed := range []int64{21, 22} {
		g := testNetwork(t, 700, 1050, seed)
		opts := Options{Regions: 16, Segments: true, SquareCells: true}
		eb, err := NewEB(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		nr, err := NewNR(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, srv := range []scheme.Server{eb, nr} {
			ch, err := broadcast.NewChannel(srv.Cycle(), 0.05, seed)
			if err != nil {
				t.Fatal(err)
			}
			client := srv.NewClient()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				q := scheme.QueryFor(g, graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes())))
				res, err := client.Query(broadcast.NewTuner(ch, rng.Intn(srv.Cycle().Len())), q)
				if err != nil {
					t.Fatalf("%s seed %d query %d: %v", client.Name(), seed, i, err)
				}
				var net *spath.SubNetwork
				switch c := client.(type) {
				case *EBClient:
					net = c.coll.Net
				case *NRClient:
					net = c.coll.Net
				}
				want := spath.DijkstraNetworkFiltered(net, q.S, q.T, every)
				if res.Dist != want.Dist || !slices.Equal(res.Path, want.Path) {
					t.Fatalf("%s seed %d query %d (%d->%d): dist %v path %v, oracle %v path %v",
						client.Name(), seed, i, q.S, q.T, res.Dist, res.Path, want.Dist, want.Path)
				}
			}
		}
	}
}
