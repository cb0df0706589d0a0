package deploy_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/station"
)

func testGraph(t *testing.T, nodes, edges int, seed int64) *graph.Graph {
	t.Helper()
	g, err := netgen.Generate(nodes, edges, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func wantDist(t *testing.T, g *graph.Graph, s, to graph.NodeID, got float64) {
	t.Helper()
	want, _, _ := spath.PointToPoint(g, s, to)
	if math.Abs(got-want) > 1e-3*(1+want) {
		t.Fatalf("dist %v, want %v", got, want)
	}
}

// TestOfflineSessionMatchesDirectPath pins the unified path to the raw
// substrate: a Session's query on an offline deployment is the same
// channel, tuner position and client as driving broadcast directly.
func TestOfflineSessionMatchesDirectPath(t *testing.T) {
	g := testGraph(t, 400, 520, 7)
	d, err := deploy.Deploy(g, deploy.WithMethod(deploy.NR), deploy.WithParams(deploy.Params{Regions: 8}),
		deploy.WithLoss(0.05, 11))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sess, err := d.Session(context.Background(), deploy.SessionOptions{TuneIn: 123})
	if err != nil {
		t.Fatal(err)
	}

	// The direct path: same cycle, same channel parameters, same tune-in,
	// one reused client — and between queries the session's cursor stays
	// where the previous query left the air, like a device staying tuned.
	ch, err := broadcast.NewChannel(d.Server().Cycle(), 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	client := d.Server().NewClient()
	at := 123
	for _, pair := range [][2]graph.NodeID{{17, 342}, {5, 211}, {340, 12}} {
		res, err := sess.Query(context.Background(), pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		wantDist(t, g, pair[0], pair[1], res.Dist)

		tuner := broadcast.NewTuner(ch, at)
		ref, err := client.Query(tuner, scheme.QueryFor(g, pair[0], pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		at = tuner.Pos()
		if res.Dist != ref.Dist || res.Metrics.TuningPackets != ref.Metrics.TuningPackets ||
			res.Metrics.LatencyPackets != ref.Metrics.LatencyPackets {
			t.Errorf("%d->%d: session %v/%d/%d, direct %v/%d/%d", pair[0], pair[1],
				res.Dist, res.Metrics.TuningPackets, res.Metrics.LatencyPackets,
				ref.Dist, ref.Metrics.TuningPackets, ref.Metrics.LatencyPackets)
		}
	}
}

func TestOfflineShardedSession(t *testing.T) {
	g := testGraph(t, 400, 520, 9)
	d, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}),
		deploy.WithChannels(4), deploy.WithLoss(0.05, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sess, err := d.Session(context.Background(), deploy.SessionOptions{TuneIn: 50, Channel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]graph.NodeID{{11, 388}, {3, 200}} {
		res, err := sess.Query(context.Background(), pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		wantDist(t, g, pair[0], pair[1], res.Dist)
	}
}

func TestLiveSessions(t *testing.T) {
	g := testGraph(t, 400, 520, 5)
	for _, k := range []int{1, 4} {
		d, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}),
			deploy.WithChannels(k), deploy.WithLive(station.Config{}), deploy.WithLoss(0.03, 2))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := d.Session(context.Background(), deploy.SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Query(context.Background(), 7, 311)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		wantDist(t, g, 7, 311, res.Dist)
		d.Close()
	}
}

// TestLiveRestartAfterContextCancel: a live deployment lazily started by
// a session whose context is later cancelled must come back on the air
// for the next caller — the stations support restart, so the deployment
// must not latch itself off.
func TestLiveRestartAfterContextCancel(t *testing.T) {
	g := testGraph(t, 400, 520, 14)
	d, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}),
		deploy.WithLive(station.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ctx1, cancel1 := context.WithCancel(context.Background())
	sess1, err := d.Session(ctx1, deploy.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Query(ctx1, 7, 311); err != nil {
		t.Fatal(err)
	}
	cancel1()
	d.Station().Stop() // wait for the air to actually go down

	sess2, err := d.Session(context.Background(), deploy.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess2.Query(context.Background(), 7, 311)
	if err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	wantDist(t, g, 7, 311, res.Dist)
}

func TestRunFleetDispatch(t *testing.T) {
	g := testGraph(t, 400, 520, 6)
	cases := []struct {
		name     string
		opts     []deploy.Option
		churn    bool
		channels int
	}{
		{"single", []deploy.Option{deploy.WithLive(station.Config{})}, false, 0},
		{"multi", []deploy.Option{deploy.WithLive(station.Config{}), deploy.WithChannels(3)}, false, 3},
		{"churn", []deploy.Option{deploy.WithLive(station.Config{}),
			deploy.WithUpdates(deploy.UpdateConfig{Batches: 2, Interval: time.Millisecond})}, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := deploy.Deploy(g, append(tc.opts, deploy.WithParams(deploy.Params{Regions: 8}))...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			rep, err := d.RunFleet(context.Background(), fleet.Options{Clients: 8, Queries: 48, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors != 0 || rep.Agg.N != 48 {
				t.Errorf("errors %d answered %d, want 0/48", rep.Errors, rep.Agg.N)
			}
			if rep.Pool != 48 {
				t.Errorf("pool %d, want 48", rep.Pool)
			}
			if (rep.Churn != nil) != tc.churn {
				t.Errorf("churn report %v, want %v", rep.Churn != nil, tc.churn)
			}
			if tc.channels > 0 && len(rep.Channels) != tc.channels {
				t.Errorf("channel stats for %d channels, want %d", len(rep.Channels), tc.channels)
			}
		})
	}
}

func TestChurnSessionReenters(t *testing.T) {
	g := testGraph(t, 400, 520, 8)
	d, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}),
		deploy.WithLive(station.Config{}),
		deploy.WithUpdates(deploy.UpdateConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sess, err := d.Session(context.Background(), deploy.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Swap a new version in mid-session and keep querying: answers must
	// track the manager's current network.
	if _, err := sess.Query(context.Background(), 3, 77); err != nil {
		t.Fatal(err)
	}
	from, to, w := g.ArcAt(0)
	b, err := d.Manager().Apply([]graph.WeightUpdate{{From: from, To: to, Weight: w * 2}})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := d.Station().Swap(b.Cycle)
	if err != nil {
		t.Fatal(err)
	}
	<-applied
	res, err := sess.Query(context.Background(), 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	wantDist(t, b.Graph, 3, 77, res.Dist)
}

// TestSessionQueryHonorsContext is the satellite's acceptance: an offline
// lossy query loop (which spins until recovery succeeds) aborts promptly
// once the context is cancelled.
func TestSessionQueryHonorsContext(t *testing.T) {
	g := testGraph(t, 400, 520, 3)
	// 90% loss: recovery needs many cycles, so a pre-cancelled context
	// must cut the loop short rather than let it spin to completion.
	d, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}), deploy.WithLoss(0.9, 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := d.Session(context.Background(), deploy.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Query(ctx, 17, 342); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	// The same session keeps working with a live context.
	res, err := sess.Query(context.Background(), 17, 342)
	if err != nil {
		t.Fatal(err)
	}
	wantDist(t, g, 17, 342, res.Dist)
}

func TestDeployValidation(t *testing.T) {
	g := testGraph(t, 250, 330, 2)
	for name, opts := range map[string][]deploy.Option{
		"updates offline":   {deploy.WithUpdates(deploy.UpdateConfig{})},
		"updates sharded":   {deploy.WithUpdates(deploy.UpdateConfig{}), deploy.WithLive(station.Config{}), deploy.WithChannels(2)},
		"loss out of range": {deploy.WithLoss(1.5, 1)},
		"channels negative": {deploy.WithChannels(-2)},
		"unknown method":    {deploy.WithMethod("XX")},
	} {
		if _, err := deploy.Deploy(g, opts...); err == nil {
			t.Errorf("%s: Deploy succeeded, want error", name)
		}
	}
	if _, err := deploy.Deploy(g); err != nil {
		t.Errorf("default Deploy: %v", err)
	}
}

func TestRunFleetNeedsLive(t *testing.T) {
	g := testGraph(t, 250, 330, 2)
	d, err := deploy.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunFleet(context.Background(), fleet.Options{}); err == nil {
		t.Fatal("RunFleet on an offline deployment succeeded, want error")
	}
}

func TestWithCacheSharesBuilds(t *testing.T) {
	g := testGraph(t, 250, 330, 4)
	d1, err := deploy.Deploy(g, deploy.WithCache("test/250/4"), deploy.WithParams(deploy.Params{Regions: 8}))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := deploy.Deploy(g, deploy.WithCache("test/250/4"), deploy.WithParams(deploy.Params{Regions: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Server() != d2.Server() {
		t.Error("same cache key built two servers")
	}
	d3, err := deploy.Deploy(g, deploy.WithCache("test/250/4"), deploy.WithParams(deploy.Params{Regions: 16}))
	if err != nil {
		t.Fatal(err)
	}
	if d3.Server() == d1.Server() {
		t.Error("different params shared one cached server")
	}
}

// TestWorkloadForPool covers the fleet workload a deployment hands its
// runs: how the pool is sized, and that it is a build artifact — a keyed
// deployment generates a given (pool, cycle length, seed) once however
// often RunFleet asks, an unkeyed one per call.
func TestWorkloadForPool(t *testing.T) {
	g := testGraph(t, 250, 330, 4)
	d, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}))
	if err != nil {
		t.Fatal(err)
	}
	// Default: capped at the paper's workload size.
	if w := d.Workload(fleet.Options{Queries: 1000}); len(w.Queries) != fleet.DefaultPoolSize {
		t.Errorf("default pool %d, want %d", len(w.Queries), fleet.DefaultPoolSize)
	}
	// Explicit PoolSize lifts the cap.
	if w := d.Workload(fleet.Options{Queries: 1000, PoolSize: 600}); len(w.Queries) != 600 {
		t.Errorf("explicit pool %d, want 600", len(w.Queries))
	}
	// Small runs stay small.
	opts := fleet.Options{Queries: 48, Seed: 3}
	w := d.Workload(opts)
	if len(w.Queries) != 48 {
		t.Errorf("small-run pool %d, want 48", len(w.Queries))
	}
	if d.Workload(opts) == w {
		t.Error("unkeyed deployment cached its workload")
	}

	keyed, err := deploy.Deploy(g, deploy.WithCache("test/250/4"), deploy.WithParams(deploy.Params{Regions: 8}))
	if err != nil {
		t.Fatal(err)
	}
	kw := keyed.Workload(opts)
	if keyed.Workload(opts) != kw {
		t.Error("keyed deployment regenerated its workload")
	}
	if keyed.Workload(fleet.Options{Queries: 48, Seed: 4}) == kw {
		t.Error("a different seed shared the cached workload")
	}
	if len(kw.Queries) != len(w.Queries) || kw.Queries[0] != w.Queries[0] || kw.Queries[47] != w.Queries[47] {
		t.Error("keyed and unkeyed deployments generated different workloads for the same inputs")
	}
}
