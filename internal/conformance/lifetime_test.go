package conformance

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/scheme"
)

// scribbleFeed serves every payload out of one buffer and overwrites that
// buffer on the next At: the shortest payload lifetime broadcast.Feed
// allows (a wire receiver serves views of its datagram buffer). A client
// that keeps a payload across receptions reads garbage through it.
type scribbleFeed struct {
	broadcast.Feed
	buf []byte
}

func (f *scribbleFeed) At(abs int) (packet.Packet, bool) {
	for i := range f.buf {
		f.buf[i] = byte(0xa5 ^ abs ^ i)
	}
	p, ok := f.Feed.At(abs)
	f.buf = append(f.buf[:0], p.Payload...)
	if p.Payload != nil {
		p.Payload = f.buf
	}
	return p, ok
}

// recordFeed notes every position served and whether it arrived intact.
type recordFeed struct {
	broadcast.Feed
	pos []int
	ok  []bool
}

func (f *recordFeed) At(abs int) (packet.Packet, bool) {
	p, ok := f.Feed.At(abs)
	f.pos, f.ok = append(f.pos, abs), append(f.ok, ok)
	return p, ok
}

// outcome is everything a query reports that the payload lifetime must not
// move.
type outcome struct {
	Err                   string
	Dist                  float64
	Path                  []graph.NodeID
	Tuning, Latency, Lost int
	PeakMem               int
}

func runOn(c scheme.Client, f broadcast.Feed, start int, q scheme.Query) outcome {
	tu := broadcast.NewFeedTuner(f, start)
	res, err := c.Query(tu, q)
	o := outcome{Dist: res.Dist, Path: res.Path, Tuning: res.Metrics.TuningPackets,
		Latency: res.Metrics.LatencyPackets, Lost: tu.Lost(), PeakMem: res.Metrics.PeakMemBytes}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

func sameOutcome(a, b outcome) bool {
	return a.Err == b.Err && a.Dist == b.Dist && slices.Equal(a.Path, b.Path) &&
		a.Tuning == b.Tuning && a.Latency == b.Latency && a.Lost == b.Lost && a.PeakMem == b.PeakMem
}

// TestPayloadLifetime holds every method to the Feed contract that a
// payload is valid only until the next At: over a feed that scribbles on
// each payload once the next reception starts, every answer, path and
// paper-currency figure equals the plain channel's, at loss 0, 0.1 and 0.3,
// each query on its own loss seed.
func TestPayloadLifetime(t *testing.T) {
	g := Network(t, 350, 500, 11)
	queries := 200
	if testing.Short() {
		queries = 60
	}
	for _, m := range build.Methods {
		srv, err := build.Server(build.Request{Graph: g, Method: m, Params: build.Params{Regions: 8}})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for _, loss := range []float64{0, 0.1, 0.3} {
			t.Run(fmt.Sprintf("%s/loss%v", srv.Name(), loss), func(t *testing.T) {
				plain, scribbled := srv.NewClient(), srv.NewClient()
				rng := rand.New(rand.NewSource(int64(7 + 1000*loss)))
				bad := 0
				for i := 0; i < queries; i++ {
					q := scheme.QueryFor(g, graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes())))
					start := rng.Intn(srv.Cycle().Len())
					ch, err := broadcast.NewChannel(srv.Cycle(), loss, int64(i))
					if err != nil {
						t.Fatal(err)
					}
					want := runOn(plain, ch, start, q)
					got := runOn(scribbled, &scribbleFeed{Feed: ch}, start, q)
					if !sameOutcome(got, want) {
						if bad++; bad <= 3 {
							t.Errorf("query %d (%d->%d, start %d): scribbled %+v, plain %+v", i, q.S, q.T, start, got, want)
						}
					}
				}
				if bad > 3 {
					t.Errorf("%d of %d queries differ", bad, queries)
				}
			})
		}
	}
}

// TestHiTiStashSurvivesRetries: HiTi's index pass ends on the first data
// packet, which it keeps for the data phase, and then re-listens for the
// index packets it lost. The kept packet must survive those receptions.
// The case is found deterministically: the first loss seed whose plain run
// serves an intact data packet right after an index packet and then listens
// to an index slot again.
func TestHiTiStashSurvivesRetries(t *testing.T) {
	g := Network(t, 350, 500, 11)
	srv, err := build.Server(build.Request{Graph: g, Method: build.HiTi})
	if err != nil {
		t.Fatal(err)
	}
	cyc := srv.Cycle()
	kind := func(abs int) packet.Kind { return cyc.Packets[abs%cyc.Len()].Kind }
	stashThenRetry := func(f *recordFeed) bool {
		for i := 1; i+1 < len(f.pos); i++ {
			if f.ok[i] && kind(f.pos[i]) != packet.KindIndex &&
				f.pos[i-1] == f.pos[i]-1 && kind(f.pos[i-1]) == packet.KindIndex &&
				kind(f.pos[i+1]) == packet.KindIndex {
				return true
			}
		}
		return false
	}
	q := scheme.QueryFor(g, 17, 301)
	start := cyc.Len() / 2
	for seed := int64(1); seed <= 200; seed++ {
		ch, err := broadcast.NewChannel(cyc, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordFeed{Feed: ch}
		want := runOn(srv.NewClient(), rec, start, q)
		if !stashThenRetry(rec) {
			continue
		}
		if got := runOn(srv.NewClient(), &scribbleFeed{Feed: ch}, start, q); !sameOutcome(got, want) {
			t.Fatalf("seed %d: scribbled %+v, plain %+v", seed, got, want)
		}
		return
	}
	t.Fatal("no seed in 1..200 takes HiTi's stash-then-retry path")
}
