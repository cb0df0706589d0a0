package update

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/baseline/djair"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/servercache"
	"repro/internal/spath"
	"repro/internal/workload"
)

func testNetwork(t testing.TB, nodes, edges int, seed int64) *graph.Graph {
	t.Helper()
	g, err := netgen.Generate(nodes, edges, seed)
	if err != nil {
		t.Fatalf("netgen: %v", err)
	}
	return g
}

// cacheMisses reads the servercache miss counter (obs.GetCounter is an
// idempotent registry lookup, so this observes the series servercache
// increments): one miss per artifact actually built.
func cacheMisses() int64 { return obs.GetCounter("air_servercache_misses_total", "").Value() }

// diskCounters reads the disk tier's hit, miss and bytes-written counters.
func diskCounters() (hits, misses, putBytes int64) {
	return obs.GetCounter("air_diskcache_hits_total", "").Value(),
		obs.GetCounter("air_diskcache_misses_total", "").Value(),
		obs.GetCounter("air_diskcache_put_bytes_total", "").Value()
}

func newNR(t testing.TB, g *graph.Graph) *core.NR {
	t.Helper()
	srv, err := core.NewNR(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestEmptyUpdateStreamBitIdentical is the satellite regression pin: with
// no updates applied, the manager serves the scheme server's own cycle
// object — same pointer, version zero, every packet header unstamped — so
// the static path is provably untouched by the version plumbing (the
// committed rows of harness.TestLatencyVsKGolden and TestK1BitForBit guard
// the rest of that claim in CI).
func TestEmptyUpdateStreamBitIdentical(t *testing.T) {
	g := testNetwork(t, 300, 450, 1)
	srv := newNR(t, g)
	m, err := NewManager(g, srv, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycle() != srv.Cycle() {
		t.Fatal("empty update stream: manager cycle is not the server's own object")
	}
	if m.Version() != 0 || m.Cycle().Version != 0 {
		t.Fatalf("empty update stream: version %d/%d, want 0", m.Version(), m.Cycle().Version)
	}
	for i, p := range m.Cycle().Packets {
		if p.Version != 0 {
			t.Fatalf("packet %d stamped with version %d on the static path", i, p.Version)
		}
		if p.Kind == packet.KindDelta {
			t.Fatalf("packet %d is a delta packet on the static path", i)
		}
	}
	if m.Delta() != nil {
		t.Fatal("empty update stream: non-nil delta")
	}
}

// Delta returns the KindDelta packets on the manager's current cycle. Apply
// appends no patch trailer (nothing on the air decodes one), so it is nil
// at every version.
func (m *Manager) Delta() []packet.Packet {
	var out []packet.Packet
	for _, p := range m.Cycle().Packets {
		if p.Kind == packet.KindDelta {
			out = append(out, p)
		}
	}
	return out
}

// queryOnAir answers one query over a lossy single-channel air of c.
func queryOnAir(t *testing.T, c *broadcast.Cycle, client scheme.Client, g *graph.Graph, s, d graph.NodeID, at int, loss float64, seed int64) float64 {
	t.Helper()
	ch, err := broadcast.NewChannel(c, loss, seed)
	if err != nil {
		t.Fatal(err)
	}
	tuner := broadcast.NewTuner(ch, at)
	res, err := client.Query(tuner, scheme.QueryFor(g, s, d))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if tuner.VersionMixed() {
		t.Fatal("static air produced a mixed version window")
	}
	return res.Dist
}

// TestApplyVersionsAnswerMutatedNetwork drives managers for NR, EB and DJ
// through update batches and checks, at every version, that on-air answers
// (over the stamped cycle, with loss) equal a fresh Dijkstra on the mutated
// network — the acceptance criterion of the versioned-cycle subsystem —
// and that the stamp went on the manager's copy: no trailer on the air,
// the rebuilt server's own cycle (which the servercache shares) unstamped.
func TestApplyVersionsAnswerMutatedNetwork(t *testing.T) {
	g := testNetwork(t, 400, 600, 2)
	servers := []scheme.Server{newNR(t, g), mustEB(t, g), djair.New(g)}
	for _, srv := range servers {
		t.Run(srv.Name(), func(t *testing.T) {
			m, err := NewManager(g, srv, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for batch := 0; batch < 3; batch++ {
				mode := []Mode{ModeIncrease, ModeDecrease, ModeMixed}[batch]
				b, err := m.Apply(RandomUpdates(m.Graph(), rng, 15, mode))
				if err != nil {
					t.Fatal(err)
				}
				if b.Version != uint32(batch+1) || b.Cycle.Version != b.Version {
					t.Fatalf("batch %d: version %d/%d", batch, b.Version, b.Cycle.Version)
				}
				if m.Delta() != nil || b.Cycle.Len() != b.Server.Cycle().Len() {
					t.Fatalf("batch %d: %d-packet cycle carries a trailer", batch, b.Cycle.Len())
				}
				if own := b.Server.Cycle(); own.Version != 0 || own.Packets[0].Version != 0 {
					t.Fatalf("batch %d: the rebuilt server's own cycle was stamped", batch)
				}
				client := b.Server.NewClient()
				for q := 0; q < 8; q++ {
					s := graph.NodeID(rng.Intn(g.NumNodes()))
					d := graph.NodeID(rng.Intn(g.NumNodes()))
					got := queryOnAir(t, b.Cycle, client, b.Graph, s, d, rng.Intn(b.Cycle.Len()), 0.1, int64(q))
					want, _, _ := spath.PointToPoint(b.Graph, s, d)
					if !workload.SameDist(got, want) {
						t.Fatalf("%s v%d (%d->%d): got %v, want %v", srv.Name(), b.Version, s, d, got, want)
					}
				}
			}
		})
	}
}

func mustEB(t testing.TB, g *graph.Graph) *core.EB {
	t.Helper()
	srv, err := core.NewEB(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestVersionedCycleOverMultichannel shards a versioned cycle across 3
// channels and answers queries on the hopping radio: answers must match
// the mutated network.
func TestVersionedCycleOverMultichannel(t *testing.T) {
	g := testNetwork(t, 300, 450, 4)
	m, err := NewManager(g, newNR(t, g), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b, err := m.Apply(RandomUpdates(g, rng, 20, ModeMixed))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := multichannel.Build(b.Cycle, 3, multichannel.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dir.Version != b.Version {
		t.Fatalf("plan directory version %d, want %d", plan.Dir.Version, b.Version)
	}
	air, err := multichannel.NewAir(plan, 0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	client := b.Server.NewClient()
	for q := 0; q < 10; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		tuner, rx, err := air.Tuner(rng.Intn(2*b.Cycle.Len()), multichannel.RxOptions{
			Channel: q % 3, Cold: q%2 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Query(tuner, scheme.QueryFor(g, s, d))
		if err != nil {
			t.Fatal(err)
		}
		if rx.Stale() {
			t.Fatal("static versioned air reported stale")
		}
		want, _, _ := spath.PointToPoint(b.Graph, s, d)
		if !workload.SameDist(res.Dist, want) {
			t.Fatalf("multichannel v%d (%d->%d): got %v, want %v", b.Version, s, d, res.Dist, want)
		}
	}
}

// TestQueryReentersAcrossSwap pins the staleness semantics end to end on
// the offline versioned air: a query tuned in just before a cycle swap
// must detect the mixed version window, re-enter, and come back with the
// answer of the network version its clean pass ran on.
func TestQueryReentersAcrossSwap(t *testing.T) {
	g := testNetwork(t, 300, 450, 10)
	srv := newNR(t, g)
	m, err := NewManager(g, srv, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// A heavy patch, so v0 and v1 answers genuinely differ for most pairs.
	b, err := m.Apply(RandomUpdates(g, rng, g.NumArcs()/4, ModeIncrease))
	if err != nil {
		t.Fatal(err)
	}
	l0 := srv.Cycle().Len()
	for q := 0; q < 10; q++ {
		replay, err := NewReplay(srv.Cycle(), 0.05, int64(q))
		if err != nil {
			t.Fatal(err)
		}
		swapPos := 3 * l0
		if err := replay.SwapAt(swapPos, b.Cycle); err != nil {
			t.Fatal(err)
		}
		// Tune in a few packets before the swap: the first attempt cannot
		// finish on the outgoing cycle.
		tuner := broadcast.NewFeedTuner(replay, swapPos-3-q)
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, attempts, err := Query(srv.NewClient(), tuner, scheme.QueryFor(g, s, d))
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if attempts < 2 {
			t.Fatalf("query %d answered in %d attempt(s) while straddling the swap", q, attempts)
		}
		ver, known := tuner.Version()
		if !known || ver != b.Version {
			t.Fatalf("query %d: clean pass on version %d/%v, want %d", q, ver, known, b.Version)
		}
		want, _, _ := spath.PointToPoint(b.Graph, s, d)
		if !workload.SameDist(res.Dist, want) {
			t.Fatalf("query %d (%d->%d): got %v, want post-update %v", q, s, d, res.Dist, want)
		}
	}
}

// TestManagerCacheReuse: two managers replaying the same update sequence
// through the version-keyed servercache share every build.
func TestManagerCacheReuse(t *testing.T) {
	g := testNetwork(t, 250, 375, 14)
	// A rebuild that runs is two cache misses — the version's border parts
	// and its server — so misses/2 counts the rebuilds.
	misses0 := cacheMisses()
	builds := func() int64 { return (cacheMisses() - misses0) / 2 }
	mk := func() *Manager {
		m, err := NewManager(g, newNR(t, g), Config{
			Cache: &servercache.Key{Network: "update-cache-test", Scheme: "NR", Params: "r=8"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	apply := func(m *Manager) *Build {
		t.Helper()
		rng := rand.New(rand.NewSource(15))
		var last *Build
		for batch := 0; batch < 2; batch++ {
			b, err := m.Apply(RandomUpdates(g, rng, 10, ModeMixed))
			if err != nil {
				t.Fatal(err)
			}
			last = b
		}
		return last
	}
	b1 := apply(mk())
	after := builds()
	if after != 2 {
		t.Fatalf("%d builds for two versions, want 2", after)
	}
	b2 := apply(mk())
	if builds() != after {
		t.Fatalf("replaying the same sequence rebuilt (%d -> %d builds)", after, builds())
	}
	if b1.Server != b2.Server {
		t.Fatal("cache returned distinct servers for the same sequence")
	}
	// A diverging sequence must not collide with the cached one.
	m3 := mk()
	rng := rand.New(rand.NewSource(99))
	if _, err := m3.Apply(RandomUpdates(g, rng, 10, ModeMixed)); err != nil {
		t.Fatal(err)
	}
	if builds() != after+1 {
		t.Fatalf("diverging sequence did not build (%d builds)", builds())
	}
}

// TestReplaySwapValidation covers the offline air's swap preconditions.
func TestReplaySwapValidation(t *testing.T) {
	g := testNetwork(t, 250, 375, 16)
	srv := newNR(t, g)
	l := srv.Cycle().Len()
	r, err := NewReplay(srv.Cycle(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAt(l+1, srv.Cycle()); err == nil {
		t.Fatal("mid-cycle swap accepted")
	}
	r.At(l) // serve into the second cycle
	if err := r.SwapAt(l, srv.Cycle()); err == nil {
		t.Fatal("swap at an already-served position accepted")
	}
	if err := r.SwapAt(2*l, srv.Cycle()); err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAt(3*l, srv.Cycle()); err != nil {
		t.Fatal(err)
	}
}

// entries counts the disk tier's entry files in dir.
func entries(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.aird"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestManagerWarmRestartFromDisk: a manager replaying an update history
// after a process restart (in-memory cache flushed, disk tier re-attached
// on the same directory) warm-loads every version's cycle and border data
// from disk instead of re-running the rebuild, and the warm cycles are
// bit-identical to the cold ones.
func TestManagerWarmRestartFromDisk(t *testing.T) {
	g := testNetwork(t, 250, 375, 17)
	dir := t.TempDir()
	servercache.Flush()
	if err := servercache.EnableDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer func() { servercache.Flush(); servercache.DisableDisk() }()

	mk := func() *Manager {
		m, err := NewManager(g, newNR(t, g), Config{
			Cache: &servercache.Key{Network: "update-disk-test", Scheme: "NR", Params: "r=8"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	apply := func(m *Manager) *Build {
		t.Helper()
		rng := rand.New(rand.NewSource(18))
		var last *Build
		for batch := 0; batch < 2; batch++ {
			b, err := m.Apply(RandomUpdates(g, rng, 10, ModeMixed))
			if err != nil {
				t.Fatal(err)
			}
			last = b
		}
		return last
	}
	// A rebuild that runs persists its border data and its cycle; a version
	// warm-loaded from disk reads those two entries and writes nothing.
	b1 := apply(mk())
	if n := entries(t, dir); n != 4 {
		t.Fatalf("two versions persisted %d entries, want 4 (border + cycle each)", n)
	}
	hits0, misses0, put0 := diskCounters()

	// The restart: forget every in-memory server, re-open the tier.
	servercache.Flush()
	servercache.DisableDisk()
	if err := servercache.EnableDisk(dir, 0); err != nil {
		t.Fatal(err)
	}

	b2 := apply(mk())
	if hits, misses, put := diskCounters(); hits-hits0 != 4 || misses != misses0 || put != put0 {
		t.Fatalf("restart re-ran the rebuild (%d disk hits, %d misses, %d bytes written; want 4, 0, 0)",
			hits-hits0, misses-misses0, put-put0)
	}
	if b1.Version != b2.Version || b1.Cycle.Len() != b2.Cycle.Len() {
		t.Fatalf("warm replay diverged: v%d/%d packets vs v%d/%d",
			b2.Version, b2.Cycle.Len(), b1.Version, b1.Cycle.Len())
	}
	for i := range b1.Cycle.Packets {
		p, q := b1.Cycle.Packets[i], b2.Cycle.Packets[i]
		if p.Kind != q.Kind || p.NextIndex != q.NextIndex || p.Version != q.Version ||
			string(p.Payload) != string(q.Payload) {
			t.Fatalf("warm cycle diverges from cold at packet %d", i)
		}
	}
}
