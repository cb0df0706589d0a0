package deploy_test

import (
	"context"
	"testing"

	"repro/internal/deploy"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/servercache"
)

// diskCounters reads the diskcache hit/miss counters (obs.GetCounter is
// an idempotent registry lookup, so this observes the same series the
// diskcache package increments).
func diskCounters() (hits, misses int64) {
	return obs.GetCounter("air_diskcache_hits_total", "").Value(),
		obs.GetCounter("air_diskcache_misses_total", "").Value()
}

// TestWarmRestartSkipsRebuild is the end-to-end warm-restart contract:
// deploy with a disk-backed cache, simulate a process restart (flush the
// in-memory build cache, detach and re-attach the disk tier on the same
// directory), deploy again, and prove via the miss→hit counter transition
// that the second deployment loaded the persisted artifacts instead of
// rebuilding — and that what it loaded serves bit-identical answers.
func TestWarmRestartSkipsRebuild(t *testing.T) {
	for _, m := range []deploy.Method{deploy.EB, deploy.NR, deploy.DJ} {
		t.Run(string(m), func(t *testing.T) {
			dir := t.TempDir()
			g := testGraph(t, 300, 380, 6)
			servercache.Flush()
			defer func() { servercache.Flush(); servercache.DisableDisk() }()

			opts := []deploy.Option{
				deploy.WithMethod(m),
				deploy.WithParams(deploy.Params{Regions: 8}),
				deploy.WithCache("warm/300/6"),
				deploy.WithDiskCache(dir, 0),
			}

			hits0, _ := diskCounters()
			d1, err := deploy.Deploy(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			hits1, misses1 := diskCounters()
			if hits1 != hits0 {
				t.Fatalf("cold deploy hit the empty disk cache (%d hits)", hits1-hits0)
			}
			cold := d1.Server().Cycle()

			// The restart: the in-memory cache forgets its servers and the
			// disk tier re-opens the same directory from scratch.
			servercache.Flush()
			servercache.DisableDisk()

			d2, err := deploy.Deploy(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			hits2, misses2 := diskCounters()
			if hits2 == hits1 {
				t.Fatal("warm deploy never hit the disk cache: it rebuilt")
			}
			if misses2 != misses1 {
				t.Fatalf("warm deploy missed %d disk entries", misses2-misses1)
			}
			warm := d2.Server().Cycle()

			if cold.Len() != warm.Len() {
				t.Fatalf("warm cycle has %d packets, cold %d", warm.Len(), cold.Len())
			}
			for i := range cold.Packets {
				p, q := cold.Packets[i], warm.Packets[i]
				if p.Kind != q.Kind || p.NextIndex != q.NextIndex || p.Version != q.Version ||
					string(p.Payload) != string(q.Payload) {
					t.Fatalf("warm cycle diverges from cold at packet %d", i)
				}
			}

			// The warm server answers from the mmap'd cycle.
			sess, err := d2.Session(context.Background(), deploy.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Query(context.Background(), graph.NodeID(5), graph.NodeID(211))
			if err != nil {
				t.Fatal(err)
			}
			wantDist(t, g, 5, 211, res.Dist)
		})
	}
}

// cacheCounters reads the in-memory servercache hit/miss counters.
func cacheCounters() (hits, misses int64) {
	return obs.GetCounter("air_servercache_hits_total", "").Value(),
		obs.GetCounter("air_servercache_misses_total", "").Value()
}

// TestKeyedEBAndNRShareOnePrecompute pins the paper's Table 3 property on
// the deploy route: EB and NR "pre-compute the exact same shortest paths",
// so on one keyed network the border storm runs once — the NR deploy
// misses only its own server entry and hits the border-parts artifact the
// EB deploy built — and both report the same pre-computation time.
func TestKeyedEBAndNRShareOnePrecompute(t *testing.T) {
	g := testGraph(t, 300, 380, 8)
	servercache.Flush()
	defer servercache.Flush()
	opts := func(m deploy.Method) []deploy.Option {
		return []deploy.Option{
			deploy.WithMethod(m), deploy.WithParams(deploy.Params{Regions: 8}), deploy.WithCache("shared/300/8"),
		}
	}

	hits0, misses0 := cacheCounters()
	eb, err := deploy.Deploy(g, opts(deploy.EB)...)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := cacheCounters()
	if hits1-hits0 != 0 || misses1-misses0 != 2 {
		t.Fatalf("EB deploy: %d cache hits, %d misses; want 0 and 2 (server + border parts)", hits1-hits0, misses1-misses0)
	}
	nr, err := deploy.Deploy(g, opts(deploy.NR)...)
	if err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := cacheCounters()
	if hits2-hits1 != 1 || misses2-misses1 != 1 {
		t.Fatalf("NR deploy: %d cache hits, %d misses; want 1 (the border parts) and 1 (its server)", hits2-hits1, misses2-misses1)
	}
	if eb.Server().PrecomputeTime() != nr.Server().PrecomputeTime() || eb.Server().PrecomputeTime() == 0 {
		t.Fatalf("pre-computation time EB %v, NR %v; want one shared, non-zero storm",
			eb.Server().PrecomputeTime(), nr.Server().PrecomputeTime())
	}
}

// TestReplacedDiskTierKeepsMappings is the regression test for a SIGSEGV
// through the public API: a deployment warm-loaded from one cache directory
// serves an mmap'd cycle, and a later deployment naming another directory
// replaces the disk tier. Replacing must not unmap what the first is still
// serving — its next query used to fault in packet.ForEachRecord.
func TestReplacedDiskTierKeepsMappings(t *testing.T) {
	g := testGraph(t, 300, 380, 9)
	servercache.Flush()
	defer func() { servercache.Flush(); servercache.DisableDisk() }()
	in := func(dir, network string) []deploy.Option {
		return []deploy.Option{
			deploy.WithMethod(deploy.NR), deploy.WithParams(deploy.Params{Regions: 8}),
			deploy.WithCache(network), deploy.WithDiskCache(dir, 0),
		}
	}
	dirA := t.TempDir()
	if _, err := deploy.Deploy(g, in(dirA, "tier/a")...); err != nil {
		t.Fatal(err)
	}
	servercache.Flush()
	warm, err := deploy.Deploy(g, in(dirA, "tier/a")...) // serves dirA's mapping
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.Deploy(g, in(t.TempDir(), "tier/b")...); err != nil {
		t.Fatal(err)
	}
	sess, err := warm.Session(context.Background(), deploy.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(context.Background(), graph.NodeID(5), graph.NodeID(211))
	if err != nil {
		t.Fatal(err)
	}
	wantDist(t, g, 5, 211, res.Dist)
}
