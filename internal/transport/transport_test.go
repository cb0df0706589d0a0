package transport_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/station"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ask answers q on one attachment of air and releases it.
func ask(t *testing.T, air transport.Transport, tune transport.Tune, client scheme.Client, q scheme.Query) (scheme.Result, transport.Attachment) {
	t.Helper()
	att, err := air.Attach(tune)
	if err != nil {
		t.Fatalf("%T attach: %v", air, err)
	}
	tuner := att.Tuner()
	res, err := client.Query(tuner, q)
	att.Release(tuner.Pos())
	if err != nil {
		t.Fatalf("%T query: %v", air, err)
	}
	if got := att.Missed(); got != 0 {
		t.Fatalf("%T: virtual clock missed %d packets", air, got)
	}
	return res, att
}

// TestFiveTransportsAgree attaches through each of the five transports on
// the same small NR cycle. A live air picks its own tune-in, so each live
// attachment is replayed on the offline transport of the same width at the
// position (and seed) the live one reported: distance, tuning and latency
// must then be bit-identical — live station and wire loopback against the
// offline channel, the live station group against the offline K-channel air
// (which must also agree on hops and per-channel packets). Across all five,
// every query must report the same distance.
func TestFiveTransportsAgree(t *testing.T) {
	g, err := netgen.Generate(300, 420, 11)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewNR(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	plan, err := multichannel.Build(srv.Cycle(), k, multichannel.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := station.New(srv.Cycle(), station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mst, err := multichannel.NewStation(plan, station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wst, err := station.New(srv.Cycle(), station.Config{}) // the wire's own station: a parked remote must not hold st's clock
	if err != nil {
		t.Fatal(err)
	}
	live, group, wired := transport.Live{Station: st}, transport.LiveGroup{Station: mst}, transport.Live{Station: wst}
	ctx := context.Background()
	for _, air := range []transport.Transport{live, group, wired} {
		if err := air.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if err := air.Start(ctx); err != nil {
			t.Fatalf("%T: second Start: %v (want idempotent)", air, err)
		}
		defer air.Stop()
	}
	b, err := wire.NewBroadcaster("127.0.0.1:0", wst, wire.BroadcasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	remote, err := wire.NewRemote(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if remote.Len() != srv.Cycle().Len() || remote.Version() != srv.Cycle().Version || remote.Rate() != wst.Rate() {
		t.Fatalf("remote probe: %d packets v%d at %d bps", remote.Len(), remote.Version(), remote.Rate())
	}

	client := srv.NewClient()
	same := func(name string, got, want scheme.Result) {
		t.Helper()
		if got.Dist != want.Dist || got.Metrics.TuningPackets != want.Metrics.TuningPackets ||
			got.Metrics.LatencyPackets != want.Metrics.LatencyPackets {
			t.Errorf("%s: dist/tuning/latency %v/%d/%d, offline replay %v/%d/%d", name,
				got.Dist, got.Metrics.TuningPackets, got.Metrics.LatencyPackets,
				want.Dist, want.Metrics.TuningPackets, want.Metrics.LatencyPackets)
		}
	}
	for _, loss := range []float64{0, 0.05} {
		for i := 0; i < 8; i++ {
			s := graph.NodeID(i * 13 % g.NumNodes())
			d := graph.NodeID((i*29 + 7) % g.NumNodes())
			q := scheme.QueryFor(g, s, d)
			seed := int64(1000 + i)
			tune := transport.Tune{Loss: loss, Seed: seed, Channel: i % k}

			// K = 1: live station and wire loopback, each against the
			// offline channel at the same tune-in and loss pattern.
			offline, err := transport.NewOffline(srv.Cycle(), loss, seed)
			if err != nil {
				t.Fatal(err)
			}
			var dist float64
			for name, air := range map[string]transport.Transport{"live": live, "wire": remote} {
				got, att := ask(t, air, tune, client, q)
				want, _ := ask(t, offline, transport.Tune{Cursor: att.Start}, client, q)
				same(name, got, want)
				dist = want.Dist
			}

			// K = 3: the live group against the offline air at its tick.
			got, att := ask(t, group, tune, client, q)
			air, err := transport.NewOfflineAir(plan, loss, seed)
			if err != nil {
				t.Fatal(err)
			}
			tick := att.Feed.(*multichannel.Rx).TuneIn()
			want, watt := ask(t, air, transport.Tune{Cursor: tick, Channel: tune.Channel}, client, q)
			same("group", got, want)
			if att.Hops() != watt.Hops() {
				t.Errorf("group hops %d, offline air %d", att.Hops(), watt.Hops())
			}
			if gp, wp := att.PerChannel(), watt.PerChannel(); !reflect.DeepEqual(gp, wp) || len(gp) != k {
				t.Errorf("group per-channel %v, offline air %v", gp, wp)
			}
			if got.Dist != dist {
				t.Errorf("query %d: K=%d dist %v, K=1 dist %v", i, k, got.Dist, dist)
			}
		}
	}
	for _, air := range []transport.Transport{live, group} {
		if n := air.Subscribers(); n != 0 {
			t.Errorf("%T: %d subscribers after every release", air, n)
		}
	}
}
