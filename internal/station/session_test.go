package station_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/station"
	"repro/internal/transport"
)

// TestConcurrentSessionsMatchOffline runs eight K=1 sessions at once on one
// virtual-clock station, each with its own loss pattern and each holding,
// releasing and fast-forwarding the shared clock as its client dozes. Every
// query must equal its transport.Offline replay at the tune-in position the
// live attachment reported — distance, tuning, latency and lost packets —
// whatever the other seven did to the clock in the meantime.
func TestConcurrentSessionsMatchOffline(t *testing.T) {
	g, err := netgen.Generate(300, 420, 11)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewNR(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := station.New(srv.Cycle(), station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	live := transport.Live{Station: st}
	if err := live.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer live.Stop()

	// ask answers q on one attachment and reports what the tuner lost.
	ask := func(air transport.Transport, tune transport.Tune, client scheme.Client, q scheme.Query) (scheme.Result, int, transport.Attachment, error) {
		att, err := air.Attach(tune)
		if err != nil {
			return scheme.Result{}, 0, att, err
		}
		tuner := att.Tuner()
		res, err := client.Query(tuner, q)
		att.Release(tuner.Pos())
		return res, tuner.Lost(), att, err
	}

	const sessions, queries, loss = 8, 6, 0.05
	var wg sync.WaitGroup
	for id := 0; id < sessions; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, replay := srv.NewClient(), srv.NewClient()
			for i := 0; i < queries; i++ {
				s := graph.NodeID((id*41 + i*13) % g.NumNodes())
				d := graph.NodeID((id*17 + i*29 + 7) % g.NumNodes())
				q := scheme.QueryFor(g, s, d)
				seed := int64(100*id + i)
				got, gotLost, att, err := ask(live, transport.Tune{Loss: loss, Seed: seed}, client, q)
				if err != nil {
					t.Errorf("session %d query %d live: %v", id, i, err)
					return
				}
				if m := att.Missed(); m != 0 {
					t.Errorf("session %d query %d: virtual clock missed %d packets", id, i, m)
				}
				offline, err := transport.NewOffline(srv.Cycle(), loss, seed)
				if err != nil {
					t.Error(err)
					return
				}
				want, wantLost, _, err := ask(offline, transport.Tune{Cursor: att.Start}, replay, q)
				if err != nil {
					t.Errorf("session %d query %d offline: %v", id, i, err)
					return
				}
				if got.Dist != want.Dist || got.Metrics.TuningPackets != want.Metrics.TuningPackets ||
					got.Metrics.LatencyPackets != want.Metrics.LatencyPackets || gotLost != wantLost {
					t.Errorf("session %d query %d: live dist/tuning/latency/lost %v/%d/%d/%d, offline replay %v/%d/%d/%d",
						id, i, got.Dist, got.Metrics.TuningPackets, got.Metrics.LatencyPackets, gotLost,
						want.Dist, want.Metrics.TuningPackets, want.Metrics.LatencyPackets, wantLost)
				}
			}
		}(id)
	}
	wg.Wait()
	if n := live.Subscribers(); n != 0 {
		t.Errorf("%d subscribers after every release", n)
	}
}
