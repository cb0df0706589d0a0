package multichannel

import (
	"context"
	"testing"

	"repro/internal/station"
)

// TestSpanDoesNotAllocate pins a hopping radio's run reception at zero
// allocations, offline (the air's cycle slices) and live (the shard
// subscriptions' views), and the per-channel counter flush of Close at zero
// once each channel's series is resolved.
func TestSpanDoesNotAllocate(t *testing.T) {
	g := network(t, 220, 300, 5)
	plan, err := Build(servers(t, g)[1].Cycle(), 3, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	air, err := NewAir(plan, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := air.Rx(5, RxOptions{Channel: 1})
	if err != nil {
		t.Fatal(err)
	}
	mst, err := NewStation(plan, station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mst.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer mst.Stop()
	live, err := mst.Subscribe(0.1, 4, RxOptions{Channel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for name, rx := range map[string]*Rx{"offline": offline, "live": live} {
		pos := rx.StartPos()
		if n := testing.AllocsPerRun(300, func() {
			pkts, _ := rx.Span(pos, 1+pos%90)
			pos += len(pkts) + pos%5 // a doze now and then hops channels
		}); n != 0 {
			t.Errorf("%s Rx.Span allocates %v times per run", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { rx.flush() }); n != 0 {
			t.Errorf("%s Rx.flush allocates %v times per call", name, n)
		}
	}
}
