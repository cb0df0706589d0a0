package servercache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/packet"
	"repro/internal/precompute"
)

// testCycle assembles a small deterministic cycle with an index section
// and two data sections, seeded by seed so distinct cycles differ.
func testCycle(t *testing.T, seed int64) *broadcast.Cycle {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(kind packet.Kind, n int) []packet.Packet {
		w := packet.NewWriter(kind)
		for i := 0; i < n; i++ {
			rec := make([]byte, 8+rng.Intn(60))
			rng.Read(rec)
			w.Add(byte(1+i%7), rec)
		}
		return w.Packets()
	}
	a := broadcast.NewAssembler()
	a.Append(packet.KindIndex, -1, "index", mk(packet.KindIndex, 3))
	a.Append(packet.KindData, 0, "R0", mk(packet.KindData, 9))
	a.Append(packet.KindData, 1, "R1", mk(packet.KindData, 6))
	c := a.Finish()
	c.SetVersion(uint32(seed))
	return c
}

// testBorder builds an n-region BorderData over nodes nodes by hand.
func testBorder(n, nodes int) *precompute.BorderData {
	b := &precompute.BorderData{
		MinDist:     make([][]float64, n),
		MaxDist:     make([][]float64, n),
		Traverse:    make([]precompute.RegionSet, n*n),
		CrossBorder: make([]bool, nodes),
		Elapsed:     1234 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		b.MinDist[i] = make([]float64, n)
		b.MaxDist[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			b.MinDist[i][j] = float64(i*n+j) * 0.5
			b.MaxDist[i][j] = float64(i*n+j) * 1.5
		}
	}
	for i := range b.Traverse {
		b.Traverse[i] = precompute.NewRegionSet(n)
		b.Traverse[i].Set(i % n)
	}
	for v := 0; v < nodes; v += 3 {
		b.CrossBorder[v] = true
	}
	return b
}

func equalCyclePackets(a, b *broadcast.Cycle) bool {
	if a.Len() != b.Len() || len(a.Sections) != len(b.Sections) {
		return false
	}
	for i := range a.Packets {
		p, q := a.Packets[i], b.Packets[i]
		if p.Kind != q.Kind || p.NextIndex != q.NextIndex || p.Version != q.Version ||
			string(p.Payload) != string(q.Payload) {
			return false
		}
	}
	return true
}

func TestDiskTierCycleRoundTrip(t *testing.T) {
	Flush()
	if err := EnableDisk(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer func() { Flush(); DisableDisk() }()

	key := Key{Network: "disk/a", Scheme: "EB", Params: "r=4", Version: 3}
	want := testCycle(t, 3)
	if CachedCycle(key) != nil {
		t.Fatal("cycle hit before Put")
	}
	PutCycle(key, want)
	got := CachedCycle(key)
	if got == nil {
		t.Fatal("cycle miss after Put")
	}
	if !equalCyclePackets(want, got) {
		t.Error("round-tripped cycle differs")
	}

	// Distinct versions of the same build key are distinct entries.
	key2 := key
	key2.Version = 4
	if CachedCycle(key2) != nil {
		t.Error("version 4 hit on version 3's entry")
	}
}

func TestDiskTierBorderRoundTrip(t *testing.T) {
	Flush()
	if err := EnableDisk(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer func() { Flush(); DisableDisk() }()

	key := Key{Network: "disk/b", Scheme: "NR", Params: "r=4"}
	want := testBorder(4, 120)
	if _, _, ok := CachedBorder(key); ok {
		t.Fatal("border hit before Put")
	}
	PutBorder(key, want, 4)
	got, n, ok := CachedBorder(key)
	if !ok || n != 4 {
		t.Fatalf("border miss after Put (ok=%v n=%d)", ok, n)
	}
	if got.Elapsed != want.Elapsed || len(got.CrossBorder) != len(want.CrossBorder) {
		t.Fatalf("border shape differs: %v/%d vs %v/%d",
			got.Elapsed, len(got.CrossBorder), want.Elapsed, len(want.CrossBorder))
	}
	for i := range want.MinDist {
		for j := range want.MinDist[i] {
			if got.MinDist[i][j] != want.MinDist[i][j] || got.MaxDist[i][j] != want.MaxDist[i][j] {
				t.Fatalf("distance matrix differs at %d,%d", i, j)
			}
		}
	}
	for i := range want.Traverse {
		if fmt.Sprint(got.Traverse[i]) != fmt.Sprint(want.Traverse[i]) {
			t.Fatalf("traverse set differs at %d", i)
		}
	}
	for i := range want.CrossBorder {
		if got.CrossBorder[i] != want.CrossBorder[i] {
			t.Fatalf("cross-border flag differs at %d", i)
		}
	}
}

// TestDiskTierConcurrent hammers the tier from many goroutines (run under
// -race): concurrent puts and gets across overlapping keys must stay
// consistent, and every hit must decode to the cycle put under that key.
func TestDiskTierConcurrent(t *testing.T) {
	Flush()
	if err := EnableDisk(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer func() { Flush(); DisableDisk() }()

	const keys = 8
	cycles := make([]*broadcast.Cycle, keys)
	for i := range cycles {
		cycles[i] = testCycle(t, int64(100+i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (w + i) % keys
				key := Key{Network: "disk/conc", Scheme: "EB", Params: fmt.Sprintf("k=%d", k)}
				if i%3 == 0 {
					PutCycle(key, cycles[k])
					continue
				}
				if got := CachedCycle(key); got != nil && !equalCyclePackets(got, cycles[k]) {
					t.Errorf("key %d decoded to a different cycle", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDiskTierSurvivesRestart proves the warm-restart contract at the
// servercache layer: a fresh EnableDisk on the same directory (a new
// process, as far as the tier is concerned) serves the prior tier's
// entries back.
func TestDiskTierSurvivesRestart(t *testing.T) {
	Flush()
	dir := t.TempDir()
	if err := EnableDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	key := Key{Network: "disk/restart", Scheme: "DJ", Params: ""}
	want := testCycle(t, 9)
	PutCycle(key, want)
	Flush()
	DisableDisk()

	if err := EnableDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer func() { Flush(); DisableDisk() }()
	got := CachedCycle(key)
	if got == nil {
		t.Fatal("restarted tier missed a persisted cycle")
	}
	if !equalCyclePackets(want, got) {
		t.Error("restarted tier decoded a different cycle")
	}
}

// TestDisableDiskDropsMappedEntries: DisableDisk unmaps every cycle
// CachedCycle handed out, so the in-memory cache must not keep serving
// them — a Get after DisableDisk builds again instead of returning a cycle
// whose payloads fault when read.
func TestDisableDiskDropsMappedEntries(t *testing.T) {
	Flush()
	if err := EnableDisk(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer func() { Flush(); DisableDisk() }()

	key := Key{Network: "disk/unmap", Scheme: "EB", Params: "r=4"}
	want := testCycle(t, 5)
	PutCycle(key, want)
	mapped, err := Get(key, func() (*broadcast.Cycle, error) { return CachedCycle(key), nil })
	if err != nil || mapped == nil {
		t.Fatalf("warm Get = %v, %v", mapped, err)
	}
	DisableDisk()

	builds := 0
	got, err := Get(key, func() (*broadcast.Cycle, error) { builds++; return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got == mapped || builds != 1 {
		t.Fatalf("Get after DisableDisk returned the unmapped cycle (%d builds)", builds)
	}
	if !equalCyclePackets(want, got) {
		t.Error("rebuilt cycle differs")
	}
}
