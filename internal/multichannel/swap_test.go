package multichannel

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/station"
)

// restamped returns a k-channel plan of cyc's content stamped with version.
// It stamps a copy: the server's canonical cycle stays untouched.
func restamped(t testing.TB, cyc *broadcast.Cycle, k int, version uint32) *Plan {
	t.Helper()
	c := &broadcast.Cycle{
		Packets:  append([]packet.Packet(nil), cyc.Packets...),
		Sections: cyc.Sections,
	}
	c.SetVersion(version)
	p, err := Build(c, k, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// versionedPlans builds n plans of the same NR broadcast under
// progressively mutated arc weights, stamped with versions 1..n: the
// realistic swap input (same topology and section structure, new payload
// bytes, bumped version).
func versionedPlans(t testing.TB, k, n int) []*Plan {
	t.Helper()
	g := network(t, 220, 300, 9)
	srv, err := core.NewNR(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	plans := make([]*Plan, n)
	for v := 1; v <= n; v++ {
		if v > 1 {
			ups := make([]graph.WeightUpdate, 0, 10)
			for i := 0; i < 10; i++ {
				from, to, w := g.ArcAt(rng.Intn(g.NumArcs()))
				ups = append(ups, graph.WeightUpdate{From: from, To: to, Weight: w * (0.5 + 1.5*rng.Float64())})
			}
			if g, err = g.WithWeights(ups); err != nil {
				t.Fatal(err)
			}
			next, err := build.Reweigh(srv, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv = next.(*core.NR)
		}
		plans[v-1] = restamped(t, srv.Cycle(), k, uint32(v))
	}
	return plans
}

// TestStationSwapChurn is the multi-channel churn scenario under -race:
// channel-hopping radios (warm and cold) tuning in, receiving, and
// dropping out while the station group swaps cycle versions. Invariants:
// versions are monotonic per radio, a non-stale radio's receptions always
// carry the content its directory's version maps (the swap is atomic
// across shards, so a mixed-shard tick would surface here as content from
// the wrong version), and once the air has settled on the final version a
// fresh radio serves it correctly. And it must not deadlock.
func TestStationSwapChurn(t *testing.T) {
	const k = 3
	plans := versionedPlans(t, k, 5)
	byVersion := map[uint32]*Plan{}
	for _, p := range plans {
		byVersion[p.Logical.Version] = p
	}
	mst, err := NewStation(plans[0], station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mst.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer mst.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the updater: roll through the versions
		defer wg.Done()
		for _, p := range plans[1:] {
			swapped, err := mst.Swap(p)
			if err != nil {
				t.Errorf("swap to v%d: %v", p.Logical.Version, err)
				return
			}
			select {
			case <-swapped:
			case <-ctx.Done():
				return
			}
		}
	}()

	// checkReceptions drives one radio for up to m receptions, verifying
	// content against the plan of each packet's version; it returns early
	// (true) when the radio goes stale — the caller resubscribes, exactly
	// like a client re-entering a query.
	checkReceptions := func(rx *Rx, m int, rng *rand.Rand) (stale bool) {
		pos := rx.StartPos()
		lastVer := uint32(0)
		for i := 0; i < m; i++ {
			if rng.Intn(5) == 0 {
				pos += rng.Intn(9) // sleep over a few positions
			}
			p, ok := rx.At(pos)
			pos++
			if !ok {
				continue
			}
			if p.Version < lastVer {
				t.Errorf("version went backwards %d -> %d", lastVer, p.Version)
				return false
			}
			lastVer = p.Version
			if rx.Stale() {
				return true
			}
			plan := byVersion[p.Version]
			if plan == nil {
				t.Errorf("reception carries unknown version %d", p.Version)
				return false
			}
			want := plan.Logical.Packets[(pos-1)%plan.LogicalLen()]
			if p.Kind != want.Kind || string(p.Payload) != string(want.Payload) {
				t.Errorf("logical %d v%d: wrong content (kind %v want %v)", pos-1, p.Version, p.Kind, want.Kind)
				return false
			}
		}
		return false
	}

	const clients = 6
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for q := 0; q < 12; q++ {
				rx, err := mst.Subscribe(float64(w%2)*0.05, int64(w*1000+q), RxOptions{
					Channel: rng.Intn(k),
					Cold:    w%3 == 0,
				})
				if err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				for retry := 0; checkReceptions(rx, 60, rng) && retry < 20; retry++ {
					// Stale radio: re-enter on a fresh subscription, like a
					// client whose query straddled the swap.
					rx.Close()
					if rx, err = mst.Subscribe(0.02, int64(w*1000+q+500+retry), RxOptions{Channel: rng.Intn(k)}); err != nil {
						t.Errorf("client %d resubscribe: %v", w, err)
						return
					}
				}
				rx.Close()
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("multichannel churn deadlocked")
	}

	// The air has settled: a fresh warm radio and a fresh cold radio must
	// both serve the final version's content.
	final := plans[len(plans)-1]
	if got := mst.Version(); got != final.Logical.Version {
		t.Fatalf("station version %d after churn, want %d", got, final.Logical.Version)
	}
	for _, cold := range []bool{false, true} {
		rx, err := mst.Subscribe(0, 999, RxOptions{Channel: 1, Cold: cold})
		if err != nil {
			t.Fatal(err)
		}
		pos := rx.StartPos()
		for i := 0; i < 2*final.LogicalLen(); i++ {
			p, ok := rx.At(pos + i)
			if !ok {
				t.Fatalf("cold=%v: lossless reception lost", cold)
			}
			want := final.Logical.Packets[(pos+i)%final.LogicalLen()]
			if p.Version != final.Logical.Version || string(p.Payload) != string(want.Payload) {
				t.Fatalf("cold=%v: settled air serves wrong content at logical %d (version %d)", cold, pos+i, p.Version)
			}
		}
		if rx.Stale() {
			t.Fatalf("cold=%v: fresh radio on settled air reports stale", cold)
		}
		rx.Close()
	}
}

// TestSwapValidation covers the swap preconditions.
func TestSwapValidation(t *testing.T) {
	plans := versionedPlans(t, 2, 2)
	mst, err := NewStation(plans[0], station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mst.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer mst.Stop()
	if _, err := mst.Swap(plans[0]); err == nil {
		t.Fatal("swap to the same version accepted")
	}
	wrongK := versionedPlans(t, 3, 1)
	if _, err := mst.Swap(wrongK[0]); err == nil {
		t.Fatal("swap to a different channel count accepted")
	}
	swapped, err := mst.Swap(plans[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mst.Swap(plans[1]); err == nil {
		t.Fatal("second pending swap accepted")
	}
	select {
	case <-swapped:
	case <-time.After(30 * time.Second):
		t.Fatal("swap never applied")
	}
	if mst.Version() != 2 || mst.currentPlan() != plans[1] {
		t.Fatalf("plan not reconciled after swap: version %d", mst.Version())
	}
}
