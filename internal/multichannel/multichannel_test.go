package multichannel

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline/djair"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/station"
	"repro/internal/workload"
)

func network(t testing.TB, nodes, edges int, seed int64) *graph.Graph {
	t.Helper()
	g, err := netgen.Generate(nodes, edges, seed)
	if err != nil {
		t.Fatalf("netgen: %v", err)
	}
	return g
}

func servers(t testing.TB, g *graph.Graph) []scheme.Server {
	t.Helper()
	nr, err := core.NewNR(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatalf("NewNR: %v", err)
	}
	eb, err := core.NewEB(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatalf("NewEB: %v", err)
	}
	return []scheme.Server{djair.New(g), nr, eb}
}

// TestPlanShardsVerbatim checks, for every logical position, that the
// channel slot the directory maps it to carries the identical packet.
func TestPlanShardsVerbatim(t *testing.T) {
	g := network(t, 220, 300, 5)
	for _, srv := range servers(t, g) {
		for _, k := range []int{1, 2, 3, 4} {
			p, err := Build(srv.Cycle(), k, PlanOptions{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", srv.Name(), k, err)
			}
			if got := p.K(); got != k {
				t.Fatalf("%s: K=%d, want %d", srv.Name(), got, k)
			}
			for pos := 0; pos < p.LogicalLen(); pos++ {
				c, slot := p.Dir.Lookup(pos)
				got := p.Channels[c].Packets[slot]
				want := srv.Cycle().Packets[pos]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: logical %d -> (ch %d, slot %d) carries wrong packet", srv.Name(), k, pos, c, slot)
				}
			}
			// Channel loads stay balanced within a factor of the largest
			// single section.
			if k > 1 {
				minLen, maxLen := p.Dir.ChanLens[0], p.Dir.ChanLens[0]
				for _, l := range p.Dir.ChanLens {
					minLen, maxLen = min(minLen, l), max(maxLen, l)
				}
				if minLen < 1 {
					t.Fatalf("%s k=%d: empty channel, lens %v", srv.Name(), k, p.Dir.ChanLens)
				}
			}
		}
	}
}

// TestDirectoryRoundTrip encodes each channel's directory copy and decodes
// it through the client accumulator: the reassembled table must match.
func TestDirectoryRoundTrip(t *testing.T) {
	g := network(t, 220, 300, 5)
	srv := servers(t, g)[1] // NR: regioned index sections exercise everything
	p, err := Build(srv.Cycle(), 4, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < p.K(); c++ {
		pkts := EncodeDirectory(p.Dir, c)
		if len(pkts) != p.Dir.DirPackets {
			t.Fatalf("channel %d: %d directory packets, planned %d", c, len(pkts), p.Dir.DirPackets)
		}
		acc := &DirAccum{}
		for _, pk := range pkts {
			acc.Process(pk, true)
		}
		got, err := acc.Directory()
		if err != nil {
			t.Fatalf("channel %d: %v", c, err)
		}
		if got.K != p.Dir.K || got.LogicalLen != p.Dir.LogicalLen ||
			!reflect.DeepEqual(got.ChanLens, p.Dir.ChanLens) ||
			!reflect.DeepEqual(got.Entries, p.Dir.Entries) {
			t.Fatalf("channel %d: decoded directory differs", c)
		}
		if !reflect.DeepEqual(got.DirSlots[c], p.Dir.DirSlots[c]) {
			t.Fatalf("channel %d: decoded copy slots %v, want %v", c, got.DirSlots[c], p.Dir.DirSlots[c])
		}
	}
}

// TestK1BitForBit pins the acceptance invariant: with K=1 the multichannel
// radio reproduces the plain broadcast.Channel substrate bit for bit — same
// answers, same tuning, same latency — for the same loss seed.
func TestK1BitForBit(t *testing.T) {
	g := network(t, 260, 360, 7)
	for _, srv := range servers(t, g) {
		for _, loss := range []float64{0, 0.05} {
			plan, err := Build(srv.Cycle(), 1, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			air, err := NewAir(plan, loss, 99)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := broadcast.NewChannel(srv.Cycle(), loss, 99)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			client := srv.NewClient()
			mclient := srv.NewClient()
			for i := 0; i < 6; i++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				d := graph.NodeID(rng.Intn(g.NumNodes()))
				at := rng.Intn(srv.Cycle().Len())
				q := scheme.QueryFor(g, s, d)

				ref, err := client.Query(broadcast.NewTuner(ch, at), q)
				if err != nil {
					t.Fatalf("%s single-channel: %v", srv.Name(), err)
				}
				tuner, _, err := air.Tuner(at, RxOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := mclient.Query(tuner, q)
				if err != nil {
					t.Fatalf("%s K=1 multichannel: %v", srv.Name(), err)
				}
				if got.Dist != ref.Dist ||
					got.Metrics.TuningPackets != ref.Metrics.TuningPackets ||
					got.Metrics.LatencyPackets != ref.Metrics.LatencyPackets {
					t.Fatalf("%s loss=%v query %d: K=1 diverged: dist %v/%v tuning %d/%d latency %d/%d",
						srv.Name(), loss, i, got.Dist, ref.Dist,
						got.Metrics.TuningPackets, ref.Metrics.TuningPackets,
						got.Metrics.LatencyPackets, ref.Metrics.LatencyPackets)
				}
			}
		}
	}
}

// TestMultiChannelAnswers checks K in {2,4}, lossless and lossy, warm and
// cold, against the full-network Dijkstra reference for every scheme kind.
func TestMultiChannelAnswers(t *testing.T) {
	g := network(t, 260, 360, 11)
	for _, srv := range servers(t, g) {
		for _, k := range []int{2, 4} {
			plan, err := Build(srv.Cycle(), k, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, loss := range []float64{0, 0.05} {
				air, err := NewAir(plan, loss, 41)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(17))
				client := srv.NewClient()
				for i := 0; i < 5; i++ {
					s := graph.NodeID(rng.Intn(g.NumNodes()))
					d := graph.NodeID(rng.Intn(g.NumNodes()))
					q := scheme.QueryFor(g, s, d)
					cold := i%2 == 1
					tuner, rx, err := air.Tuner(rng.Intn(4*plan.LogicalLen()), RxOptions{Channel: i % k, Cold: cold})
					if err != nil {
						t.Fatal(err)
					}
					res, err := client.Query(tuner, q)
					if err != nil {
						t.Fatalf("%s k=%d loss=%v cold=%v: %v", srv.Name(), k, loss, cold, err)
					}
					want, _, _ := spath.PointToPoint(g, s, d)
					if !workload.SameDist(res.Dist, want) {
						t.Errorf("%s k=%d loss=%v: dist %v, want %v", srv.Name(), k, loss, res.Dist, want)
					}
					if cold && rx.Overhead() == 0 {
						t.Errorf("%s k=%d: cold radio reported zero bootstrap overhead", srv.Name(), k)
					}
					if res.Metrics.TuningPackets <= 0 || res.Metrics.LatencyPackets <= 0 {
						t.Errorf("%s k=%d: implausible metrics %+v", srv.Name(), k, res.Metrics)
					}
				}
			}
		}
	}
}

// TestLiveMatchesOffline pins the live invariant: a virtual-clock
// multichannel station serves a radio the exact same air as an offline Air
// with the same tune-in tick, channel, loss rate and seed — distances,
// tuning, latency, hops and per-channel counts all equal.
func TestLiveMatchesOffline(t *testing.T) {
	g := network(t, 260, 360, 13)
	for _, srv := range servers(t, g)[:2] { // DJ + NR keep the test fast
		plan, err := Build(srv.Cycle(), 4, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, loss := range []float64{0, 0.05} {
			mst, err := NewStation(plan, station.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := mst.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			client := srv.NewClient()
			offClient := srv.NewClient()
			air, err := NewAir(plan, loss, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				s := graph.NodeID((i*37 + 5) % g.NumNodes())
				d := graph.NodeID((i*71 + 11) % g.NumNodes())
				q := scheme.QueryFor(g, s, d)
				seed := int64(500 + i)

				rx, err := mst.Subscribe(loss, seed, RxOptions{Channel: i % 4})
				if err != nil {
					t.Fatal(err)
				}
				live, err := client.Query(broadcast.NewFeedTuner(rx, rx.StartPos()), q)
				liveHops, livePer := rx.Hops(), rx.PerChannel()
				t0 := rx.TuneIn()
				rx.Close()
				if err != nil {
					t.Fatalf("%s live: %v", srv.Name(), err)
				}

				air.seed = seed
				orx, err := air.Rx(t0, RxOptions{Channel: i % 4})
				if err != nil {
					t.Fatal(err)
				}
				off, err := offClient.Query(broadcast.NewFeedTuner(orx, orx.StartPos()), q)
				if err != nil {
					t.Fatalf("%s offline: %v", srv.Name(), err)
				}
				if live.Dist != off.Dist ||
					live.Metrics.TuningPackets != off.Metrics.TuningPackets ||
					live.Metrics.LatencyPackets != off.Metrics.LatencyPackets ||
					liveHops != orx.Hops() || !reflect.DeepEqual(livePer, orx.PerChannel()) {
					t.Fatalf("%s loss=%v q%d: live/offline diverged: dist %v/%v tuning %d/%d latency %d/%d hops %d/%d per-channel %v/%v",
						srv.Name(), loss, i, live.Dist, off.Dist,
						live.Metrics.TuningPackets, off.Metrics.TuningPackets,
						live.Metrics.LatencyPackets, off.Metrics.LatencyPackets,
						liveHops, orx.Hops(), livePer, orx.PerChannel())
				}
			}
			mst.Stop()
		}
	}
}

// TestGroupLockstep verifies the station group holds shard positions within
// one tick of each other while a subscriber drives the clock.
func TestGroupLockstep(t *testing.T) {
	g := network(t, 220, 300, 5)
	srv := servers(t, g)[1]
	plan, err := Build(srv.Cycle(), 4, PlanOptions{})
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
	rx, err := mst.Subscribe(0, 1, RxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	for i := 0; i < 200; i++ {
		rx.At(rx.StartPos() + i)
		minP, maxP := math.MaxInt, 0
		for _, st := range mst.stations {
			p := st.Pos()
			minP, maxP = min(minP, p), max(maxP, p)
		}
		if maxP-minP > 1 {
			t.Fatalf("iteration %d: shard positions drifted: min %d max %d", i, minP, maxP)
		}
	}
}

// TestDirKindString keeps the new packet kind printable.
func TestDirKindString(t *testing.T) {
	if packet.KindDir.String() != "dir" {
		t.Fatalf("KindDir prints %q", packet.KindDir.String())
	}
}

// TestArrivalNeverMovesEarlier holds multichannel.Rx to the contract the
// client's arrival queue is built on (broadcast.Hopping.WaitFor): while the
// radio moves forward, an outstanding position's arrival tick never moves
// earlier. Over an offline K=4 air with loss, radios tuned in on every
// channel recover a spread of positions nearest-arrival-first, listening a
// short span at each and keeping re-lost positions, and every outstanding
// position's arrival is checked after every listen.
func TestArrivalNeverMovesEarlier(t *testing.T) {
	g := network(t, 260, 360, 13)
	srv := servers(t, g)[2] // EB
	plan, err := Build(srv.Cycle(), 4, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	air, err := NewAir(plan, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := plan.LogicalLen()
	hops, checks := 0, 0
	for trial := 0; trial < 8; trial++ {
		tuner, rx, err := air.Tuner(trial*97, RxOptions{Channel: trial % 4, Cold: trial%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		var out, last []int // outstanding cycle positions, their last arrival
		for cp := trial; cp < l; cp += 11 {
			out = append(out, cp)
			at, _ := tuner.Arrival(cp)
			last = append(last, at)
		}
		listen := func() bool {
			_, ok := tuner.Listen()
			for i, cp := range out {
				at, _ := tuner.Arrival(cp)
				if at < last[i] {
					t.Fatalf("trial %d: position %d's arrival moved from tick %d to %d at clock %d", trial, cp, last[i], at, rx.Clock())
				}
				last[i] = at
				checks++
			}
			return ok
		}
		for step := 0; len(out) > 0; step++ {
			best := 0
			for i := range last {
				if last[i] < last[best] {
					best = i
				}
			}
			tuner.SleepTo(tuner.NextOccurrence(out[best]))
			ok := listen()
			if ok {
				out = append(out[:best], out[best+1:]...)
				last = append(last[:best], last[best+1:]...)
			}
			for range step % 3 {
				listen()
			}
		}
		hops += rx.Hops()
	}
	if hops == 0 || checks == 0 {
		t.Fatalf("%d hops, %d checks: the radios never changed channel", hops, checks)
	}
}
