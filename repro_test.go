package repro_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

func TestFacadeQuickstart(t *testing.T) {
	g, err := repro.Generate(400, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range []repro.Method{repro.NR, repro.EB, repro.DJ} {
		d, err := repro.Deploy(g, repro.WithMethod(m), repro.WithParams(repro.Params{Regions: 8}))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		sess, err := d.Session(ctx, repro.SessionOptions{TuneIn: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Query(ctx, 17, 342)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want, _, _ := repro.ShortestPath(g, 17, 342)
		if !workload.SameDist(res.Dist, want) {
			t.Errorf("%s: dist %v, want %v", m, res.Dist, want)
		}
		if repro.EnergyJoules(res.Metrics, repro.Rate2Mbps) <= 0 {
			t.Errorf("%s: energy should be positive", m)
		}
	}
}

func TestFacadeAllMethodsBuild(t *testing.T) {
	g, err := repro.Generate(250, 330, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range repro.Methods {
		srv, err := repro.NewServer(m, g, repro.Params{Regions: 8, HiTiDepth: 2})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if srv.Cycle().Len() == 0 {
			t.Errorf("%s: empty cycle", m)
		}
		if srv.Name() != string(m) {
			t.Errorf("server name %q != method %q", srv.Name(), m)
		}
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g, err := repro.GeneratePreset("milan", 0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := repro.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumArcs() != g.NumArcs() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d arcs", g2.NumNodes(), g.NumNodes(), g2.NumArcs(), g.NumArcs())
	}
	var tbuf bytes.Buffer
	if err := repro.WriteGraphText(&tbuf, g); err != nil {
		t.Fatal(err)
	}
	g3, err := repro.ReadGraphText(&tbuf)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumNodes() != g.NumNodes() {
		t.Fatalf("text round trip: %d nodes, want %d", g3.NumNodes(), g.NumNodes())
	}
}

// TestFacadeMultiStation exercises the multi-channel facade end to end: a
// live 4-channel station and a channel-hopping fleet with verified answers.
func TestFacadeMultiStation(t *testing.T) {
	g, err := repro.Generate(400, 550, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repro.Deploy(g, repro.WithParams(repro.Params{Regions: 8}),
		repro.WithChannels(4), repro.WithLive(repro.StationConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := d.RunFleet(context.Background(), repro.FleetOptions{
		Clients: 16, Queries: 48, Loss: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Agg.N != 48 {
		t.Errorf("fleet errors %d answered %d", res.Errors, res.Agg.N)
	}
	if len(res.Channels) != 4 || res.MeanHops <= 0 {
		t.Errorf("channels %d, mean hops %v", len(res.Channels), res.MeanHops)
	}
}

// TestFacadeUpdateChurn exercises the dynamic-network facade: a dynamic
// deployment's update manager, explicit Apply + live Swap, a session
// answering on the new version, and the churn load run.
func TestFacadeUpdateChurn(t *testing.T) {
	g, err := repro.Generate(400, 550, 8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repro.Deploy(g, repro.WithParams(repro.Params{Regions: 8}), repro.WithLive(repro.StationConfig{}),
		repro.WithUpdates(repro.UpdateConfig{Batches: 2, Interval: 2 * time.Millisecond, Mode: repro.UpdateIncrease}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mgr, st := d.Manager(), d.Station()

	// An explicit manual update: apply one weight change, swap the station,
	// and answer a query on the new version.
	from, to, w := g.ArcAt(0)
	b, err := mgr.Apply([]repro.WeightUpdate{{From: from, To: to, Weight: w * 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != 1 || b.Cycle.Version != 1 {
		t.Fatalf("build version %d/%d, want 1", b.Version, b.Cycle.Version)
	}
	swapped, err := st.Swap(b.Cycle)
	if err != nil {
		t.Fatal(err)
	}
	<-swapped
	sess, err := d.Session(ctx, repro.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(ctx, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := repro.ShortestPath(b.Graph, 3, 77)
	if !workload.SameDist(res.Dist, want) {
		t.Fatalf("post-swap answer %v, want %v", res.Dist, want)
	}

	// The churn load run on top of the same station and manager.
	rep, err := d.RunFleet(ctx, repro.FleetOptions{Clients: 8, Queries: 64, Loss: 0.03, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Agg.N != 64 {
		t.Fatalf("churn errors %d answered %d", rep.Errors, rep.Agg.N)
	}
	if rep.Churn.Versions < 1 {
		t.Fatalf("versions %d after churn", rep.Churn.Versions)
	}
}
