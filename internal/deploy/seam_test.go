package deploy_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/multichannel"
	"repro/internal/station"
)

// TestStatusEveryShape pins what Status reports for each deployment shape
// against values taken from the parts directly — the same fields the
// per-shape switches reported before the transport seam replaced them.
func TestStatusEveryShape(t *testing.T) {
	g := testGraph(t, 300, 420, 9)
	build := []deploy.Option{deploy.WithParams(deploy.Params{Regions: 8}), deploy.WithCache("status-shapes")}
	deployed := func(opts ...deploy.Option) *deploy.Deployment {
		t.Helper()
		d, err := deploy.Deploy(g, append(build[:len(build):len(build)], opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	check := func(name string, d *deploy.Deployment, want deploy.Status) {
		t.Helper()
		if got := d.Status(); got != want {
			t.Errorf("%s status\n got %+v\nwant %+v", name, got, want)
		}
		if d.Len() != want.CycleLen || d.Rate() != want.Rate {
			t.Errorf("%s: Len %d Rate %d, status says %d/%d", name, d.Len(), d.Rate(), want.CycleLen, want.Rate)
		}
	}
	ctx := context.Background()

	offline := deployed()
	cycleLen := offline.Server().Cycle().Len()
	check("offline", offline, deploy.Status{Method: "NR", Channels: 1, CycleLen: cycleLen})
	if offline.Station() != nil || offline.MultiStation() != nil || offline.Manager() != nil {
		t.Error("offline deployment exposes live parts")
	}

	plan, err := multichannel.Build(offline.Server().Cycle(), 3, multichannel.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("offline K=3", deployed(deploy.WithChannels(3)),
		deploy.Status{Method: "NR", Channels: 3, CycleLen: plan.LogicalLen()})

	// Live, paced: the configured rate; and a held subscription is counted.
	live := deployed(deploy.WithLive(station.Config{BitsPerSecond: metrics.RateSlow}))
	want := deploy.Status{Method: "NR", Channels: 1, Live: true, CycleLen: cycleLen, Rate: metrics.RateSlow}
	check("live, not yet started", live, want)
	if err := live.Start(ctx); err != nil {
		t.Fatal(err)
	}
	sub, err := live.Station().Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want.Subscribers = 1
	check("live, one subscriber", live, want)
	sub.Close()
	want.Subscribers = 0
	check("live, released", live, want)

	// Live K=3 on the virtual clock: costed at the reference rate.
	group := deployed(deploy.WithChannels(3), deploy.WithLive(station.Config{}))
	if err := group.Start(ctx); err != nil {
		t.Fatal(err)
	}
	want = deploy.Status{Method: "NR", Channels: 3, Live: true, CycleLen: plan.LogicalLen(), Rate: metrics.RateFast}
	check("live K=3", group, want)
	rx, err := group.MultiStation().Subscribe(0, 1, multichannel.RxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want.Subscribers = 1
	check("live K=3, one radio", group, want)
	rx.Close()

	// Dynamic: the version on the air follows the swaps.
	dyn := deployed(deploy.WithLive(station.Config{}), deploy.WithUpdates(deploy.UpdateConfig{}))
	if err := dyn.Start(ctx); err != nil {
		t.Fatal(err)
	}
	want = deploy.Status{Method: "NR", Channels: 1, Live: true, Dynamic: true, CycleLen: cycleLen, Rate: metrics.RateFast}
	check("dynamic v0", dyn, want)
	from, to, w := g.ArcAt(0)
	b, err := dyn.Manager().Apply([]graph.WeightUpdate{{From: from, To: to, Weight: w * 2}})
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := dyn.Station().Swap(b.Cycle)
	if err != nil {
		t.Fatal(err)
	}
	<-swapped
	want.Version, want.CycleLen = 1, b.Cycle.Len()
	check("dynamic v1", dyn, want)

	// Remote: the geometry and rate the broadcaster welcomed the probe with.
	server := deployed(deploy.WithLive(station.Config{BitsPerSecond: 50_000_000}))
	addr := serveRemote(t, server)
	check("remote", deployed(deploy.WithRemote(addr)),
		deploy.Status{Method: "NR", Channels: 1, CycleLen: cycleLen, Rate: 50_000_000, Remote: addr})
}

// TestSessionReleasesFeedOnEveryExit: whichever way a query leaves — an
// answer, a tuning-budget abort, a deadline, a cancelled context, an
// admission refusal — the session gives its feed back, so the live
// subscriber count returns to zero, and Session.Air classifies the exit.
// Run on every transport that holds a subscription: live station, live
// station group, and the station behind a wire broadcaster.
func TestSessionReleasesFeedOnEveryExit(t *testing.T) {
	g := testGraph(t, 300, 420, 7)
	// DJ listens to the whole cycle, so every query is long enough for the
	// tuner's strided context poll to see a deadline or a cancellation.
	build := []deploy.Option{deploy.WithMethod(deploy.DJ), deploy.WithCache("release-exits")}
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()

	for _, shape := range []struct {
		name string
		opts []deploy.Option
		wire bool
	}{
		{"live", []deploy.Option{deploy.WithLive(station.Config{})}, false},
		{"group", []deploy.Option{deploy.WithLive(station.Config{}), deploy.WithChannels(3)}, false},
		{"wire", []deploy.Option{deploy.WithLive(station.Config{})}, true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			air, err := deploy.Deploy(g, append(build[:len(build):len(build)], shape.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer air.Close()
			if err := air.Start(bg); err != nil {
				t.Fatal(err)
			}
			d := air // where sessions are opened
			if shape.wire {
				if d, err = deploy.Deploy(g, append(build[:len(build):len(build)], deploy.WithRemote(serveRemote(t, air)))...); err != nil {
					t.Fatal(err)
				}
			}
			// idle waits for the air's subscriber count to drain: at once in
			// process, after the bye datagram lands over the wire.
			idle := func(after string) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for air.Status().Subscribers != 0 {
					if time.Now().After(deadline) {
						t.Fatalf("after %s: %d subscribers still attached", after, air.Status().Subscribers)
					}
					time.Sleep(time.Millisecond)
				}
			}
			for _, exit := range []struct {
				name    string
				ctx     context.Context
				opts    deploy.SessionOptions
				want    error
				outcome fleet.Outcome
			}{
				{"an answer", bg, deploy.SessionOptions{}, nil, fleet.Answered},
				{"a tuning-budget abort", bg, deploy.SessionOptions{TuningBudget: 3}, deploy.ErrBudgetExceeded, fleet.Degraded},
				{"a deadline", bg, deploy.SessionOptions{Deadline: time.Nanosecond}, deploy.ErrBudgetExceeded, fleet.Degraded},
				{"a cancelled context", cancelled, deploy.SessionOptions{}, context.Canceled, fleet.Failed},
			} {
				s, err := d.Session(bg, exit.opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Query(exit.ctx, 17, 242)
				if !errors.Is(err, exit.want) {
					t.Errorf("%s: err %v, want %v", exit.name, err, exit.want)
				}
				air := s.Air()
				if air.Outcome != exit.outcome || air.Attempts != 1 {
					t.Errorf("%s: outcome %d after %d attempts, want %d after 1", exit.name, air.Outcome, air.Attempts, exit.outcome)
				}
				if err == nil {
					// An answer's per-channel packets add up to its tuning.
					sum := 0
					for _, n := range air.PerChannel {
						sum += n
					}
					if k := air.PerChannel; (k != nil) != (shape.name == "group") || (k != nil && sum != res.Metrics.TuningPackets) {
						t.Errorf("%s: per-channel %v against %d tuning packets", exit.name, k, res.Metrics.TuningPackets)
					}
				}
				idle(exit.name)
			}
		})
	}

	// A refusal never attached, so there is nothing to release — and the
	// subscription that filled the station is still the only one.
	full, err := deploy.Deploy(g, append(build[:len(build):len(build)], deploy.WithLive(station.Config{MaxSubscribers: 1}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	s, err := full.Session(bg, deploy.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := full.Station().Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(bg, 17, 242); !errors.Is(err, station.ErrFull) || s.Air().Outcome != fleet.Refused {
		t.Errorf("query on a full station: err %v outcome %d, want ErrFull, refused", err, s.Air().Outcome)
	}
	if n := full.Status().Subscribers; n != 1 {
		t.Errorf("%d subscribers after a refusal, want the 1 that filled the station", n)
	}
	sub.Close()
	if _, err := s.Query(bg, 17, 242); err != nil {
		t.Errorf("query after the station drained: %v", err)
	}
}
