package chaos_test

import (
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/conformance"
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/station"
	"repro/internal/wire"
)

// TestChaosSoak is the package's end-to-end drill: a fleet of wire clients
// answers queries through the fault proxy — Gilbert-Elliott bursty loss,
// corruption, duplication, reordering — while a deterministic schedule
// kills the broadcaster mid-run and restarts it on the same port. The
// assertions are the PR's promises:
//
//   - the run returns (zero hung sessions, even across the outage),
//   - every outcome is accounted: Agg.N + Errors + Degraded + Refused ==
//     Queries — nothing is silently dropped,
//   - most queries still answer correctly (every completed answer is
//     Dijkstra-verified inside the fleet driver),
//   - the proxy actually injected damage (the soak is not vacuous).
//
// Locally it runs ~4 s; CI sets CHAOS_SECONDS for the long soak. Skipped
// under -short.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	soak := 4 * time.Second
	if s := os.Getenv("CHAOS_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("CHAOS_SECONDS=%q: %v", s, err)
		}
		soak = time.Duration(secs) * time.Second
	}

	g := conformance.Network(t, 250, 350, 7)
	build := []deploy.Option{deploy.WithParams(deploy.Params{Regions: 8}), deploy.WithCache("chaos-soak")}
	srv, err := deploy.Deploy(g, append(build, deploy.WithLive(station.Config{}))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// A short janitor horizon: a zombie remote (its client gave up with
	// every bye lost) parks its pump and, on a virtual clock, holds the
	// station; the janitor must reap it well inside the soak window.
	bopts := wire.BroadcasterOptions{IdleTimeout: 2 * time.Second}
	b, err := srv.ServeWire(context.Background(), "127.0.0.1:0", bopts)
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr().String() // pinned: the restarted broadcaster reuses it

	// The weather between fleet and broadcaster: bursty loss (mean burst
	// ~3 datagrams, ~14% stationary bad time), a little corruption (the
	// frame CRC must eat it), duplication and mild reordering.
	proxy, err := chaos.NewProxy("127.0.0.1:0", addr, chaos.ProxyOptions{
		Down: chaos.Plan{
			Seed:     2026,
			PGoodBad: 0.05, PBadGood: 0.3,
			LossGood: 0.01, LossBad: 0.7,
			Corrupt: 0.02, Duplicate: 0.02, Reorder: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// The fleet's deployment tunes to the proxy, not the broadcaster; its
	// one probe crosses the same weather.
	d, err := deploy.Deploy(g, append(build, deploy.WithRemote(proxy.Addr()))...)
	if err != nil {
		t.Fatal(err)
	}
	opts := fleet.Options{
		Clients:  8,
		Queries:  1 << 30, // effectively unbounded; Duration is the stop
		PoolSize: 30,
		Duration: soak,
		Loss:     0.02,
		Seed:     41,
		// The resilience machinery under test: per-query deadline (degraded,
		// never hung), and enough redial headroom to ride out the kill.
		QueryDeadline: 3 * time.Second,
		Wire: wire.ReceiverOptions{
			Timeout: 150 * time.Millisecond, Retries: 3,
			Redial: 3, DialTimeout: 2 * time.Second,
		},
	}

	type outcome struct {
		res fleet.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := d.RunFleet(context.Background(), opts)
		done <- outcome{rep.Result, err}
	}()

	// The kill schedule: deterministic from its seed, like every fault in
	// this package. Kill the broadcaster partway in, hold a short outage,
	// restart on the same port with the same station.
	sched := chaos.Schedule{Seed: 7, Min: soak / 4, Max: soak / 3}
	outage := 400 * time.Millisecond
	time.Sleep(sched.At(0))
	b.Close()
	time.Sleep(outage)
	b2, err := wire.NewBroadcaster(addr, srv.Station(), bopts)
	if err != nil {
		t.Fatalf("restarting broadcaster on %s: %v", addr, err)
	}
	defer b2.Close()

	// Zero hung sessions: the run must return on its own well before a
	// generous wall-clock ceiling (Duration + deadline + dial budgets).
	var out outcome
	select {
	case out = <-done:
	case <-time.After(soak + 30*time.Second):
		t.Fatal("fleet hung: RunFleet did not return after the soak window")
	}
	if out.err != nil {
		t.Fatalf("RunFleet: %v", out.err)
	}
	res := out.res

	// Full accounting: no outcome silently dropped.
	if got := res.Agg.N + res.Errors + res.Degraded + res.Refused; got != res.Queries {
		t.Fatalf("accounting leak: %d correct + %d errors + %d degraded + %d refused != %d queries",
			res.Agg.N, res.Errors, res.Degraded, res.Refused, res.Queries)
	}
	if res.Queries == 0 {
		t.Fatal("soak issued no queries")
	}
	// Most answers still land, and land correctly (the fleet driver
	// Dijkstra-verifies every completed answer; wrong distances count as
	// errors and would drag this ratio down).
	if ratio := float64(res.Agg.N) / float64(res.Queries); ratio < 0.75 {
		t.Errorf("only %.0f%% of %d queries answered correctly (%d errors, %d degraded, %d refused)",
			ratio*100, res.Queries, res.Errors, res.Degraded, res.Refused)
	}
	t.Logf("chaos soak: %d queries, %d correct, %d errors, %d degraded, %d refused in %v",
		res.Queries, res.Agg.N, res.Errors, res.Degraded, res.Refused, res.Elapsed.Round(time.Millisecond))

	// The weather must have actually happened.
	down, _ := proxy.Stats()
	t.Logf("chaos down: %v", down)
	if down.Dropped == 0 || down.Corrupted == 0 {
		t.Errorf("proxy injected no damage (%v) — the soak is vacuous", down)
	}
	// And clients must have felt it: wire-level losses surface in the
	// missed-packet accounting rather than disappearing.
	if res.MissedPackets == 0 {
		t.Errorf("no wire losses recorded despite %d dropped datagrams", down.Dropped)
	}
}
