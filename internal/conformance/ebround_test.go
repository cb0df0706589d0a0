package conformance

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/workload"
)

// TestEBBoundsKeepNeededRegion is the FuzzUpdateConformance find that EB
// could prune a region the answer needs (corpus entry eb-rounding): on
// this 80-node, 16-region network the only border path from 54's region to
// 37's runs through a third region R, and with the min/max matrix stored
// round-to-nearest min(Rs,R)+min(R,Rt) came out one float32 step above the
// upper bound, so R was pruned and the answer was 805 too long. Stored
// rounded down (min) and up (max), the bounds stay bounds.
func TestEBBoundsKeepNeededRegion(t *testing.T) {
	srv, g, err := fuzzServer(build.EB, 80, 120, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := spath.PointToPoint(g, 54, 37)
	for _, tuneIn := range []int{0, 47} {
		ch, err := broadcast.NewChannel(srv.Cycle(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.NewClient().Query(broadcast.NewTuner(ch, tuneIn), scheme.QueryFor(g, 54, 37))
		if err != nil {
			t.Fatal(err)
		}
		if !workload.SameDist(res.Dist, want) {
			t.Fatalf("tune-in %d: EB answered 54->37 with %v, Dijkstra %v", tuneIn, res.Dist, want)
		}
	}
}
