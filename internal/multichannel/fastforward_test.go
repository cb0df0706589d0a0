package multichannel

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/station"
)

// TestConcurrentRadiosMatchOffline runs eight hopping radios at once on a
// live K=4 group that fast-forwards between their wants, with a group swap
// (same content, new version) landing mid-run. Each query must equal its
// offline Air replay at the same tune-in tick — distance, tuning, latency,
// lost packets, hops and per-channel counts — whatever the other seven
// radios and the swap did to the shared clock.
func TestConcurrentRadiosMatchOffline(t *testing.T) {
	g := network(t, 260, 360, 13)
	srv := servers(t, g)[1] // NR
	const k, radios, queries, loss = 4, 8, 6, 0.05
	// The swap brings the same content under a new version: nothing a client
	// computes on changes, so the air a radio observes across it stays
	// comparable to an offline replay.
	plan := restamped(t, srv.Cycle(), k, 1)
	mst, err := NewStation(plan, station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mst.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer mst.Stop()

	var wg sync.WaitGroup
	half := make(chan struct{}) // closed once some radio is half-way through
	var halfOnce sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-half
		swapped, err := mst.Swap(restamped(t, srv.Cycle(), k, 2))
		if err != nil {
			t.Errorf("swap: %v", err)
			return
		}
		select {
		case _, ok := <-swapped:
			if !ok {
				t.Error("group swap abandoned")
			}
		case <-time.After(10 * time.Second):
			t.Error("group swap never reached the air under listeners")
		}
	}()
	for id := 0; id < radios; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer halfOnce.Do(func() { close(half) }) // never leave the swapper waiting
			client, replay := srv.NewClient(), srv.NewClient()
			for i := 0; i < queries; i++ {
				if i == queries/2 {
					halfOnce.Do(func() { close(half) })
				}
				s := graph.NodeID((id*37 + i*11 + 5) % g.NumNodes())
				d := graph.NodeID((id*71 + i*23 + 11) % g.NumNodes())
				q := scheme.QueryFor(g, s, d)
				seed := int64(100*id + i)
				opts := RxOptions{Channel: (id + i) % k}

				rx, err := mst.Subscribe(loss, seed, opts)
				if err != nil {
					t.Errorf("radio %d query %d: %v", id, i, err)
					return
				}
				tuner := broadcast.NewFeedTuner(rx, rx.StartPos())
				live, err := client.Query(tuner, q)
				rx.Close()
				if err != nil {
					t.Errorf("radio %d query %d live: %v", id, i, err)
					return
				}
				if m := rx.Missed(); m != 0 {
					t.Errorf("radio %d query %d: virtual clock missed %d packets", id, i, m)
				}

				air, err := NewAir(plan, loss, seed)
				if err != nil {
					t.Error(err)
					return
				}
				otuner, orx, err := air.Tuner(rx.TuneIn(), opts)
				if err != nil {
					t.Error(err)
					return
				}
				off, err := replay.Query(otuner, q)
				if err != nil {
					t.Errorf("radio %d query %d offline: %v", id, i, err)
					return
				}
				if live.Dist != off.Dist ||
					live.Metrics.TuningPackets != off.Metrics.TuningPackets ||
					live.Metrics.LatencyPackets != off.Metrics.LatencyPackets ||
					tuner.Lost() != otuner.Lost() || rx.Hops() != orx.Hops() ||
					!reflect.DeepEqual(rx.PerChannel(), orx.PerChannel()) {
					t.Errorf("radio %d query %d at tick %d: live/offline diverged: dist %v/%v tuning %d/%d latency %d/%d lost %d/%d hops %d/%d per-channel %v/%v",
						id, i, rx.TuneIn(), live.Dist, off.Dist,
						live.Metrics.TuningPackets, off.Metrics.TuningPackets,
						live.Metrics.LatencyPackets, off.Metrics.LatencyPackets,
						tuner.Lost(), otuner.Lost(), rx.Hops(), orx.Hops(), rx.PerChannel(), orx.PerChannel())
				}
			}
		}(id)
	}
	wg.Wait()
	if v := mst.Version(); v != 2 {
		t.Errorf("air on version %d after the run, want the swapped-in 2", v)
	}
}
