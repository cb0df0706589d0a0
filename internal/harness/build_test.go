package harness

import (
	"bytes"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/deploy"
	"repro/internal/servercache"
)

// sameCycleBytes compares two cycles packet by packet, byte for byte.
func sameCycleBytes(t *testing.T, what string, want, got *broadcast.Cycle) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d packets, want %d", what, got.Len(), want.Len())
	}
	for i := range want.Packets {
		p, q := want.Packets[i], got.Packets[i]
		if p.Kind != q.Kind || p.NextIndex != q.NextIndex || p.Version != q.Version || !bytes.Equal(p.Payload, q.Payload) {
			t.Fatalf("%s: packet %d differs", what, i)
		}
	}
}

// TestHarnessAndDeployBuildTheSameBytes pins the one build path from its
// ends: for every method, the server a harness table or figure gets for
// (network, method, its tuned params) and the server Deploy gets for the
// same inputs carry byte-identical cycles — through the cache and, for
// the schemes the disk tier covers, warm-loaded back from disk as well.
func TestHarnessAndDeployBuildTheSameBytes(t *testing.T) {
	cfg := Config{Scale: 0.03, Seed: 7}.Defaults()
	g, p, err := cfg.network(cfg.Preset)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	defer servercache.DisableDisk()
	for _, m := range deploy.Methods {
		t.Run(string(m), func(t *testing.T) {
			params := cfg.params(g, m)
			viaHarness, err := cfg.server(g, p.Name, m, params, nil)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := deploy.Deploy(g, deploy.WithMethod(m), deploy.WithParams(params))
			if err != nil {
				t.Fatal(err)
			}
			sameCycleBytes(t, "harness vs unkeyed deploy", viaHarness.Cycle(), cold.Server().Cycle())
			if m != build.EB && m != build.NR && m != build.DJ {
				return // no disk codec: nothing to warm-load
			}
			disk := []deploy.Option{
				deploy.WithMethod(m), deploy.WithParams(params),
				deploy.WithCache("harness-vs-deploy"), deploy.WithDiskCache(dir, 0),
			}
			if _, err := deploy.Deploy(g, disk...); err != nil {
				t.Fatal(err)
			}
			servercache.Flush() // the restart: only the disk tier remembers
			warm, err := deploy.Deploy(g, disk...)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Server().Cycle() == cold.Server().Cycle() {
				t.Fatal("warm deploy returned the cold server")
			}
			sameCycleBytes(t, "harness vs warm-from-disk deploy", viaHarness.Cycle(), warm.Server().Cycle())
		})
	}
}

// TestNoCacheStillSharesPrecompute: a NoCache run keys nothing, yet EB and
// NR of one servers call come from one border storm (Table 3's shared
// column) — the second borrows the first's.
func TestNoCacheStillSharesPrecompute(t *testing.T) {
	cfg := Config{Scale: 0.03, Seed: 7, NoCache: true}.Defaults()
	g, p, err := cfg.network(cfg.Preset)
	if err != nil {
		t.Fatal(err)
	}
	before := servercache.Len()
	servers, err := cfg.servers(g, p.Name, ComparableOrder)
	if err != nil {
		t.Fatal(err)
	}
	if servercache.Len() != before {
		t.Fatalf("NoCache run cached %d entries", servercache.Len()-before)
	}
	if eb, nr := servers["EB"].PrecomputeTime(), servers["NR"].PrecomputeTime(); eb != nr || eb == 0 {
		t.Fatalf("pre-computation time EB %v, NR %v; want one shared, non-zero storm", eb, nr)
	}
}
