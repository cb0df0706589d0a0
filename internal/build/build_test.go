package build

import (
	"sync"
	"testing"

	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/servercache"
)

// TestConcurrentKeyedBuildsShareOneStorm drives the walk from many
// goroutines at once (run under -race in CI): EB and NR requests racing on
// one keyed network still build each server once and the border parts they
// share once.
func TestConcurrentKeyedBuildsShareOneStorm(t *testing.T) {
	g, err := netgen.Generate(300, 380, 21)
	if err != nil {
		t.Fatal(err)
	}
	servercache.Flush()
	defer servercache.Flush()
	misses := obs.GetCounter("air_servercache_misses_total", "")
	before := misses.Value()

	p := Params{Regions: 8}
	const workers = 8
	got := make([]scheme.Server, 2*workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := []Method{EB, NR}[i%2]
			srv, err := Server(Request{Graph: g, Method: m, Params: p, Key: Key("race/300/21", m, p)})
			if err != nil {
				t.Error(err)
			}
			got[i] = srv
		}()
	}
	wg.Wait()
	for i, srv := range got {
		if srv != got[i%2] {
			t.Fatalf("request %d got its own %s server", i, srv.Name())
		}
	}
	if n := misses.Value() - before; n != 3 {
		t.Fatalf("%d cache misses, want 3 (EB, NR, their shared border parts)", n)
	}
	if got[0].PrecomputeTime() != got[1].PrecomputeTime() {
		t.Fatal("EB and NR report different pre-computation times")
	}
}

// TestReweighRefusesAnotherTopology: a rebuild lends a partition, which
// only describes the network it was cut from.
func TestReweighRefusesAnotherTopology(t *testing.T) {
	g, err := netgen.Generate(200, 260, 22)
	if err != nil {
		t.Fatal(err)
	}
	other, err := netgen.Generate(210, 270, 23)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Server(Request{Graph: g, Method: NR, Params: Params{Regions: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reweigh(srv, other, nil); err == nil {
		t.Fatal("re-weighed onto a different topology")
	}
	if _, err := Server(Request{Graph: g, Method: "XX"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}
