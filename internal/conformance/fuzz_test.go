package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/servercache"
	"repro/internal/spath"
	"repro/internal/workload"
)

// fuzzSchemes enumerates every scheme kind the fuzzer drives; the index is
// part of the fuzz input.
var fuzzSchemes = []build.Method{build.DJ, build.NR, build.EB, build.AF, build.LD, build.SPQ, build.HiTi}

// errDisconnected marks generated networks the fuzzer must skip; the shared
// cache remembers it per key, so revisits skip without regenerating.
var errDisconnected = errors.New("generator produced a disconnected network")

// fuzzKey names the build of one scheme on one generated network;
// regionsPow picks the partition granularity where applicable. The update
// fuzzer hands the same key to its manager, so version builds file next to
// the base build.
func fuzzKey(m build.Method, nodes, edges int, genSeed int64, regionsPow int) (*servercache.Key, build.Params) {
	p := build.Params{Regions: 4 << (uint(regionsPow) % 3), HiTiDepth: 2} // 4, 8, 16 regions
	return build.Key(fmt.Sprintf("fuzz-n%d-e%d-s%d", nodes, edges, genSeed), m, p), p
}

// fuzzServer builds through the one production build path (internal/build),
// memoized in the shared server/cycle cache: pre-computation dominates a
// fuzz execution, and the fuzzer revisits (network, scheme) pairs
// constantly. Concurrent fuzz workers building the same key block on one
// build instead of duplicating it, and EB and NR on one network share one
// pre-computation.
func fuzzServer(m build.Method, nodes, edges int, genSeed int64, regionsPow int) (scheme.Server, *graph.Graph, error) {
	key, p := fuzzKey(m, nodes, edges, genSeed, regionsPow)
	g, err := servercache.Get(servercache.Key{Network: key.Network, Scheme: "graph"}, func() (*graph.Graph, error) {
		g, err := netgen.Generate(nodes, edges, genSeed)
		if err != nil {
			return nil, err
		}
		if err := g.CheckStronglyConnected(); err != nil {
			return nil, errDisconnected
		}
		return g, nil
	})
	if err != nil {
		return nil, nil, err
	}
	srv, err := build.Server(build.Request{Graph: g, Method: m, Params: p, Key: key})
	return srv, g, err
}

// FuzzConformance is the property test behind the whole scheme matrix:
// ANY (network, scheme, loss rate, tune-in position, channel count,
// warm/cold radio) combination must answer a random query with exactly the
// full-network Dijkstra distance, on the single-channel substrate and on a
// sharded multi-channel air alike. CI runs a -fuzztime=15s smoke on top of
// the committed seed corpus.
func FuzzConformance(f *testing.F) {
	for si := range fuzzSchemes {
		f.Add(int64(si), uint8(si), uint16(0), uint16(1000), uint8(1))
		f.Add(int64(si)+17, uint8(si), uint16(80), uint16(7000), uint8(4))
	}
	f.Add(int64(3), uint8(1), uint16(250), uint16(999), uint8(2)) // NR, heavy loss
	f.Add(int64(9), uint8(2), uint16(150), uint16(5), uint8(15))  // EB, max channels (k = 1 + 15)
	f.Fuzz(func(t *testing.T, netSeed int64, schemeIdx uint8, lossPm uint16, tuneIn uint16, channels uint8) {
		name := fuzzSchemes[int(schemeIdx)%len(fuzzSchemes)]
		k := 1 + int(channels)%multichannel.MaxChannels
		loss := float64(lossPm%300) / 1000 // [0, 0.3)
		rng := rand.New(rand.NewSource(netSeed))
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

		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		q := scheme.QueryFor(g, s, d)

		var tuner *broadcast.Tuner
		if k == 1 {
			ch, err := broadcast.NewChannel(srv.Cycle(), loss, netSeed)
			if err != nil {
				t.Fatal(err)
			}
			tuner = broadcast.NewTuner(ch, int(tuneIn)%srv.Cycle().Len())
		} else {
			plan, err := multichannel.Build(srv.Cycle(), k, multichannel.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			air, err := multichannel.NewAir(plan, loss, netSeed)
			if err != nil {
				t.Fatal(err)
			}
			tuner, _, err = air.Tuner(int(tuneIn), multichannel.RxOptions{
				Channel: int(tuneIn) % k,
				Cold:    tuneIn%2 == 1,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := srv.NewClient().Query(tuner, q)
		if err != nil {
			t.Fatalf("%s k=%d loss=%v: %v", name, k, loss, err)
		}
		want, _, _ := spath.PointToPoint(g, s, d)
		if !workload.SameDist(res.Dist, want) {
			t.Fatalf("%s k=%d loss=%v (%d->%d): got %v, want %v", name, k, loss, s, d, res.Dist, want)
		}
		if res.Metrics.TuningPackets <= 0 || res.Metrics.LatencyPackets < 0 {
			t.Fatalf("%s k=%d: implausible metrics %+v", name, k, res.Metrics)
		}
	})
}
