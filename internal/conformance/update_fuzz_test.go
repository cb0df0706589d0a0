package conformance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/multichannel"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/update"
)

// fuzzUpdateSchemes are the rebuild-capable schemes the update fuzzer
// drives (the ones build.Reweighs reports).
var fuzzUpdateSchemes = []build.Method{build.NR, build.EB, build.DJ}

// FuzzUpdateConformance is the dynamic-network property test: ANY sequence
// of random edge-weight mutations (increases, decreases, no-ops, mixed),
// interleaved with queries, on ANY rebuild-capable scheme, under ANY loss
// rate and tune-in, must leave the on-air answer equal to a fresh Dijkstra
// on the post-update network — after every batch, over the delta-trailered
// cycle, on a single channel and on a sharded multi-channel air, and
// through a mid-swap re-entry on the offline versioned Replay. The seed
// corpus covers the weight-increase, weight-decrease and no-op profiles.
// CI runs a -fuzztime=15s smoke on top of the committed corpus.
func FuzzUpdateConformance(f *testing.F) {
	// One seed per update mode (the satellite corpus), plus a multichannel
	// mixed-mode one and an EB/DJ pair.
	f.Add(int64(1), uint8(0), uint16(50), uint16(100), int64(1), uint8(1), uint8(8), uint8(1), uint8(0))  // NR, increase
	f.Add(int64(2), uint8(0), uint16(0), uint16(900), int64(2), uint8(2), uint8(5), uint8(2), uint8(0))   // NR, decrease, two batches
	f.Add(int64(3), uint8(1), uint16(120), uint16(40), int64(3), uint8(1), uint8(6), uint8(3), uint8(0))  // EB, no-op
	f.Add(int64(4), uint8(2), uint16(80), uint16(500), int64(4), uint8(2), uint8(12), uint8(0), uint8(2)) // DJ, mixed, 3 channels
	f.Add(int64(5), uint8(0), uint16(250), uint16(77), int64(5), uint8(3), uint8(20), uint8(0), uint8(3)) // NR, heavy loss, 4 channels
	f.Fuzz(func(t *testing.T, netSeed int64, schemeIdx uint8, lossPm uint16, tuneIn uint16,
		upSeed int64, batches uint8, batchSize uint8, mode uint8, channels uint8) {
		name := fuzzUpdateSchemes[int(schemeIdx)%len(fuzzUpdateSchemes)]
		loss := float64(lossPm%300) / 1000 // [0, 0.3)
		k := 1 + int(channels)%4
		nBatches := 1 + int(batches)%3
		nPerBatch := 1 + int(batchSize)%20
		upMode := update.Mode(mode % 4)

		nodes := 80 + int(uint64(netSeed)%7)*20
		edges := nodes + nodes/2
		genSeed := int64(uint64(netSeed) % 5)
		regionsPow := int(uint64(netSeed) % 3)
		srv, g, err := fuzzServer(name, nodes, edges, genSeed, regionsPow)
		if errors.Is(err, errDisconnected) {
			t.Skip("generator produced a disconnected network")
		}
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}

		// The manager caches every version's rebuild under the update
		// sequence's signature, so fuzz re-executions of a (network, scheme,
		// sequence) triple share builds.
		key, _ := fuzzKey(name, nodes, edges, genSeed, regionsPow)
		mgr, err := update.NewManager(g, srv, update.Config{Cache: key})
		if err != nil {
			t.Fatalf("manager: %v", err)
		}

		rng := rand.New(rand.NewSource(upSeed))
		ask := func(cyc *broadcast.Cycle, gv *graph.Graph, what string) {
			t.Helper()
			s := graph.NodeID(rng.Intn(gv.NumNodes()))
			d := graph.NodeID(rng.Intn(gv.NumNodes()))
			ch, err := broadcast.NewChannel(cyc, loss, netSeed)
			if err != nil {
				t.Fatal(err)
			}
			tuner := broadcast.NewTuner(ch, int(tuneIn)%cyc.Len())
			res, err := srv.NewClient().Query(tuner, scheme.QueryFor(gv, s, d))
			if err != nil {
				t.Fatalf("%s %s: %v", name, what, err)
			}
			want, _, _ := spath.PointToPoint(gv, s, d)
			if math.Abs(res.Dist-want) > 1e-3*(1+want) {
				t.Fatalf("%s %s (%d->%d): got %v, want %v", name, what, s, d, res.Dist, want)
			}
		}

		// Updates interleaved with queries: after every batch the air must
		// answer with post-update distances.
		prevCycle, prevG := mgr.Cycle(), mgr.Graph()
		var last *update.Build
		for b := 0; b < nBatches; b++ {
			prevCycle, prevG = mgr.Cycle(), mgr.Graph()
			build, err := mgr.Apply(update.RandomUpdates(mgr.Graph(), rng, nPerBatch, upMode))
			if err != nil {
				t.Fatalf("%s apply batch %d: %v", name, b, err)
			}
			last = build
			ask(build.Cycle, build.Graph, fmt.Sprintf("batch %d", b))
		}

		// The final version over a sharded multi-channel air: the delta
		// trailer is just another section to the planner.
		if k > 1 {
			plan, err := multichannel.Build(last.Cycle, k, multichannel.PlanOptions{})
			if err != nil {
				t.Fatalf("%s plan k=%d: %v", name, k, err)
			}
			air, err := multichannel.NewAir(plan, loss, netSeed)
			if err != nil {
				t.Fatal(err)
			}
			tuner, rx, err := air.Tuner(int(tuneIn), multichannel.RxOptions{
				Channel: int(tuneIn) % k, Cold: tuneIn%2 == 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			d := graph.NodeID(rng.Intn(g.NumNodes()))
			res, err := srv.NewClient().Query(tuner, scheme.QueryFor(last.Graph, s, d))
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if rx.Stale() {
				t.Fatalf("%s k=%d: static versioned air reported stale", name, k)
			}
			want, _, _ := spath.PointToPoint(last.Graph, s, d)
			if math.Abs(res.Dist-want) > 1e-3*(1+want) {
				t.Fatalf("%s k=%d (%d->%d): got %v, want %v", name, k, s, d, res.Dist, want)
			}
		}

		// Mid-swap re-entry on the offline versioned air: tune in just
		// before the final swap; the clean pass must match the version the
		// tuner ends up on.
		replay, err := update.NewReplay(prevCycle, loss, netSeed)
		if err != nil {
			t.Fatal(err)
		}
		swapPos := 2 * prevCycle.Len()
		if err := replay.SwapAt(swapPos, last.Cycle); err != nil {
			t.Fatal(err)
		}
		tuner := broadcast.NewFeedTuner(replay, swapPos-1-int(tuneIn)%prevCycle.Len())
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, _, err := update.Query(srv.NewClient(), tuner, scheme.QueryFor(last.Graph, s, d))
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		gv := last.Graph
		if ver, known := tuner.Version(); !known || ver != last.Version {
			// The query finished on the outgoing version (it slept over the
			// swap entirely): verify against that network.
			gv = prevG
		}
		want, _, _ := spath.PointToPoint(gv, s, d)
		if math.Abs(res.Dist-want) > 1e-3*(1+want) {
			t.Fatalf("%s replay (%d->%d): got %v, want %v", name, s, d, res.Dist, want)
		}
	})
}
