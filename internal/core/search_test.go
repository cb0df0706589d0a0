package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// heapLoop is the textbook search over a collected network: every node a
// relaxation improves goes through the heap, and the search stops when t
// pops.
func heapLoop(net *spath.SubNetwork, s, t graph.NodeID) spath.Result {
	n := net.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.NodeID, n)
	for i := range dist {
		dist[i], parent[i] = spath.Inf, graph.Invalid
	}
	h := pq.New(n)
	dist[s] = 0
	h.Push(int32(s), 0)
	for h.Len() > 0 {
		item, d := h.Pop()
		v := graph.NodeID(item)
		if v == t {
			var path []graph.NodeID
			for ; v != graph.Invalid; v = parent[v] {
				path = append(path, v)
			}
			slices.Reverse(path)
			return spath.Result{Dist: d, Path: path}
		}
		for _, a := range net.Arcs(v) {
			if nd := d + a.Weight; nd < dist[a.To] {
				dist[a.To], parent[a.To] = nd, v
				h.PushOrDecrease(int32(a.To), nd)
			}
		}
	}
	return spath.Result{Dist: spath.Inf}
}

// TestClientSearchMatchesOracle: the clients' last step is the chain-walking
// search over the sub-network they collected. On two networks, over a lossy
// offline channel, each NR and EB answer must equal — Dist bit for bit, Path
// node for node — the heap loop run over that same collected network.
func TestClientSearchMatchesOracle(t *testing.T) {
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
				want := heapLoop(net, q.S, q.T)
				if res.Dist != want.Dist || !slices.Equal(res.Path, want.Path) {
					t.Fatalf("%s seed %d query %d (%d->%d): dist %v path %v, oracle %v path %v",
						client.Name(), seed, i, q.S, q.T, res.Dist, res.Path, want.Dist, want.Path)
				}
			}
		}
	}
}
