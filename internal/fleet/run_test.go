package fleet_test

// The run tests drive the fleet the way every caller does — through a
// Deployment, whose RunFleet points the runner at its sessions — and live in
// an external test package because deploy imports fleet.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/station"
	"repro/internal/update"
)

// liveDeployment deploys g live (NR on 8 regions unless opts say otherwise),
// on the air for the test's lifetime.
func liveDeployment(t *testing.T, g *graph.Graph, opts ...deploy.Option) *deploy.Deployment {
	t.Helper()
	d, err := deploy.Deploy(g, append([]deploy.Option{
		deploy.WithParams(deploy.Params{Regions: 8}), deploy.WithLive(station.Config{}),
	}, opts...)...)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

// accounted fails the test unless every issued query landed in exactly one
// outcome bucket.
func accounted(t *testing.T, res fleet.Result) {
	t.Helper()
	if got := res.Agg.N + res.Errors + res.Degraded + res.Refused; got != res.Queries {
		t.Fatalf("accounting leak: %d correct + %d errors + %d degraded + %d refused != %d queries",
			res.Agg.N, res.Errors, res.Degraded, res.Refused, res.Queries)
	}
}

// TestFleetRun exercises the whole harness end to end: a fleet over a live
// station answers every workload query correctly and the summary holds
// means, tails and throughput.
func TestFleetRun(t *testing.T) {
	d := liveDeployment(t, conformance.Network(t, 300, 420, 5))
	rep, err := d.RunFleet(context.Background(), fleet.Options{Clients: 16, Queries: 80, PoolSize: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Result
	if res.Queries != 80 {
		t.Errorf("answered %d queries, want 80", res.Queries)
	}
	if res.Errors != 0 {
		t.Errorf("%d queries failed or returned wrong distances", res.Errors)
	}
	if res.Agg.N != 80 {
		t.Errorf("aggregate holds %d queries, want 80", res.Agg.N)
	}
	if res.QPS <= 0 {
		t.Errorf("throughput %v qps", res.QPS)
	}
	if res.Method != "NR" || res.Clients != 16 || res.Pool != 40 {
		t.Errorf("run labels %q/%d/%d", res.Method, res.Clients, res.Pool)
	}
	if !(res.Tuning.P50 > 0 && res.Tuning.P50 <= res.Tuning.P95 && res.Tuning.P95 <= res.Tuning.P99) {
		t.Errorf("tuning tails out of order: %+v", res.Tuning)
	}
	if !(res.Latency.P50 > 0 && res.Latency.P99 >= res.Latency.P50) {
		t.Errorf("latency tails out of order: %+v", res.Latency)
	}
	if res.Energy.P50 <= 0 {
		t.Errorf("energy p50 %v", res.Energy.P50)
	}
	// Mean consistency between Agg and the quantile series' source.
	if res.Agg.MeanTuning() <= 0 || res.Agg.MeanLatency() <= 0 {
		t.Errorf("aggregate means %v/%v", res.Agg.MeanTuning(), res.Agg.MeanLatency())
	}
	if res.Channels != nil || res.MeanHops != 0 {
		t.Errorf("single-channel run reports channels %v, hops %v", res.Channels, res.MeanHops)
	}
}

// TestFleetHundredClients runs 120 concurrent clients against one station
// under -race (the acceptance bar for the subsystem).
func TestFleetHundredClients(t *testing.T) {
	d := liveDeployment(t, conformance.Network(t, 250, 350, 3), deploy.WithMethod(deploy.DJ))
	rep, err := d.RunFleet(context.Background(), fleet.Options{
		Clients: 120, Queries: 240, PoolSize: 30, Loss: 0.02, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 240 {
		t.Errorf("answered %d queries, want 240", rep.Queries)
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors with 120 concurrent clients", rep.Errors)
	}
	if rep.Clients != 120 {
		t.Errorf("clients %d", rep.Clients)
	}
}

// TestFleetMultiChannel200Clients drives 200 concurrent channel-hopping
// clients over a live 4-channel station under -race: zero errors, and the
// per-channel aggregates must merge to exactly the same totals as the
// all-channel aggregate — every received packet is charged to exactly one
// channel.
func TestFleetMultiChannel200Clients(t *testing.T) {
	d := liveDeployment(t, conformance.Network(t, 250, 350, 3), deploy.WithChannels(4))
	rep, err := d.RunFleet(context.Background(), fleet.Options{
		Clients: 200, Queries: 400, PoolSize: 30, Loss: 0.02, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Result
	if res.Queries != 400 || res.Errors != 0 {
		t.Errorf("queries %d errors %d with 200 concurrent clients", res.Queries, res.Errors)
	}
	if len(res.Channels) != 4 {
		t.Fatalf("per-channel stats for %d channels, want 4", len(res.Channels))
	}
	var pkts int64
	touched := 0
	for _, c := range res.Channels {
		if c.Packets <= 0 {
			t.Errorf("channel %d received no packets", c.Channel)
		}
		pkts += c.Packets
		touched += c.Queries
	}
	if pkts != int64(res.Agg.SumTuning) {
		t.Errorf("per-channel packets %d != aggregate tuning %d", pkts, res.Agg.SumTuning)
	}
	if touched < res.Agg.N {
		t.Errorf("channel-touch count %d below answered queries %d", touched, res.Agg.N)
	}
	if res.MeanHops <= 0 {
		t.Errorf("mean hops %v; hopping clients never hopped", res.MeanHops)
	}
}

// TestFleetDurationCutoff checks that the wall-clock limit stops issuing
// queries early.
func TestFleetDurationCutoff(t *testing.T) {
	d := liveDeployment(t, conformance.Network(t, 250, 350, 3), deploy.WithMethod(deploy.DJ))
	const total = 1 << 30
	rep, err := d.RunFleet(context.Background(), fleet.Options{
		Clients: 8, Queries: total, PoolSize: 10, Duration: 150 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 {
		t.Error("duration-limited run answered no queries")
	}
	if rep.Queries >= total {
		t.Errorf("duration limit did not stop the run: %d queries", rep.Queries)
	}
	if rep.Errors+rep.Degraded+rep.Refused != 0 {
		t.Errorf("in-flight queries did not finish at the cutoff: %d errors, %d degraded, %d refused",
			rep.Errors, rep.Degraded, rep.Refused)
	}
}

// TestRunChurn drives the update-churn scenario end to end under the race
// detector (CI runs this package with -race): a fleet of clients answering
// on a live station while the updater rolls cycle versions. Every answered
// query is verified inside the runner against the Dijkstra reference of the
// version it was answered on, so zero errors means the versioned swap
// pipeline — rebuild, delta trailer, boundary swap, staleness re-entry —
// produced only correct answers.
func TestRunChurn(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			d := liveDeployment(t, conformance.Network(t, 400, 600, 21), deploy.WithChannels(k), deploy.WithUpdates(deploy.UpdateConfig{
				Batches: 4, BatchSize: 20, Interval: 2 * time.Millisecond, Mode: update.ModeMixed,
			}))
			rep, err := d.RunFleet(context.Background(), fleet.Options{
				Clients: 16, Queries: 400, PoolSize: 40, Loss: 0.05, Seed: 21,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := rep.Churn
			if res.Errors > 0 {
				t.Fatalf("%d of %d churn queries failed verification", res.Errors, res.Queries)
			}
			if res.UpdateErr != nil {
				t.Fatalf("updater: %v", res.UpdateErr)
			}
			if res.Queries != 400 || res.Agg.N != 400 {
				t.Fatalf("answered %d/%d queries, want 400", res.Agg.N, res.Queries)
			}
			if res.Swaps == 0 || res.Versions == 0 {
				t.Fatalf("no swaps reached the air (swaps=%d versions=%d) — the scenario did not churn", res.Swaps, res.Versions)
			}
			if res.Versions < res.Swaps {
				t.Fatalf("versions=%d < swaps=%d", res.Versions, res.Swaps)
			}
			// Consistency of the staleness split: stale queries are a subset of
			// the answered ones, and re-entries only come from stale queries.
			if res.StaleQueries > res.Agg.N {
				t.Fatalf("stale %d > answered %d", res.StaleQueries, res.Agg.N)
			}
			if res.Reentries < res.StaleQueries {
				t.Fatalf("reentries %d < stale queries %d", res.Reentries, res.StaleQueries)
			}
			if res.QPS <= 0 {
				t.Fatalf("QPS = %v", res.QPS)
			}
		})
	}
}

// TestRunChurnOnPreUpdatedManager is the regression test for the stale
// base-reference bug: a manager that already applied updates (and a
// station already swapped to the resulting cycle) before the run starts.
// The workload's RefDist values describe the original network, so the run
// must verify against the manager's current graph instead — with a heavy
// pre-update, trusting RefDist fails most queries.
func TestRunChurnOnPreUpdatedManager(t *testing.T) {
	g := conformance.Network(t, 400, 600, 23)
	d := liveDeployment(t, g, deploy.WithUpdates(deploy.UpdateConfig{
		Batches: 1, Interval: time.Hour, // no further churn: the pre-update is the test
	}))

	// Pre-churn: push every touched weight up 10x, swap the station.
	rng := rand.New(rand.NewSource(24))
	heavy := make([]graph.WeightUpdate, 0, 300)
	for i := 0; i < 300; i++ {
		from, to, wgt := g.ArcAt(rng.Intn(g.NumArcs()))
		heavy = append(heavy, graph.WeightUpdate{From: from, To: to, Weight: wgt * 10})
	}
	b, err := d.Manager().Apply(heavy)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := d.Station().Swap(b.Cycle)
	if err != nil {
		t.Fatal(err)
	}
	<-swapped

	rep, err := d.RunFleet(context.Background(), fleet.Options{
		Clients: 8, Queries: 90, PoolSize: 30, Loss: 0.02, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d of %d queries failed verification against the pre-updated network", rep.Errors, rep.Queries)
	}
	if rep.Churn.Versions != 1 {
		t.Fatalf("versions on the air = %d, want 1", rep.Churn.Versions)
	}
}

// TestRunChurnNoUpdatesDegeneratesToFleet: with no batch firing the churn
// run is an ordinary verified fleet run — no stale queries, no re-entries,
// version 0 throughout.
func TestRunChurnNoUpdatesDegeneratesToFleet(t *testing.T) {
	d := liveDeployment(t, conformance.Network(t, 300, 450, 22), deploy.WithUpdates(deploy.UpdateConfig{
		Batches: 1, Interval: time.Hour, // never fires within the run
	}))
	rep, err := d.RunFleet(context.Background(), fleet.Options{
		Clients: 8, Queries: 80, PoolSize: 20, Loss: 0.02, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Churn
	if res.Errors > 0 {
		t.Fatalf("%d errors on a static churn run", res.Errors)
	}
	if res.StaleQueries != 0 || res.Reentries != 0 || res.Swaps != 0 || res.Versions != 0 {
		t.Fatalf("static run reported churn: %+v", res)
	}
}

// TestRunChurnHonoursBudgets: a churn run is the same runner as any other,
// so the run's answer budgets apply to it. With one tuning packet allowed
// no query can finish — every one must be counted degraded, none an error.
// (The churn runner this replaced ignored both budgets.)
func TestRunChurnHonoursBudgets(t *testing.T) {
	d := liveDeployment(t, conformance.Network(t, 300, 450, 25), deploy.WithUpdates(deploy.UpdateConfig{
		Batches: 1, Interval: time.Hour,
	}))
	rep, err := d.RunFleet(context.Background(), fleet.Options{
		Clients: 4, Queries: 40, PoolSize: 10, Seed: 25, TuningBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != rep.Queries || rep.Queries != 40 {
		t.Fatalf("degraded %d of %d queries, want all 40 (errors %d, answered %d)",
			rep.Degraded, rep.Queries, rep.Errors, rep.Agg.N)
	}
	accounted(t, rep.Result)
}

// TestRunChurnClassifiesRefusals: a station whose admission cap is below the
// client count sheds some queries; a churn run must book them as refused,
// not as errors. (The churn runner this replaced booked station.ErrFull as
// Errors.) The test holds the station's one slot until the first query is
// refused, so a refusal does not depend on two clients' queries happening
// to overlap; once the slot is free the fleet answers the rest. The run is
// RunFleet's churn run, with sessions that release the slot on a refusal.
func TestRunChurnClassifiesRefusals(t *testing.T) {
	g := conformance.Network(t, 300, 450, 26)
	d, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}),
		deploy.WithLive(station.Config{MaxSubscribers: 1}),
		deploy.WithUpdates(deploy.UpdateConfig{Batches: 1, Interval: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	ctx := context.Background()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	hold, err := d.Station().SubscribeExact(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() { once.Do(hold.Close) }
	defer release()
	opts := fleet.Options{Clients: 8, Queries: 240, PoolSize: 10, Seed: 26}
	target := fleet.Target{
		Method: d.Server().Name(), Rate: d.Rate(), Version: d.Station().Version(),
		Open: func(id int, seed int64) (fleet.Session, error) {
			s, err := d.Session(ctx, deploy.SessionOptions{Seed: seed})
			if err != nil {
				return nil, err
			}
			return releasingSession{s, release}, nil
		},
	}
	rep, err := fleet.RunChurn(ctx, target, d.Station(), d.Manager(), d.Workload(opts),
		fleet.ChurnOptions{Fleet: opts, Batches: 1, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refused == 0 || rep.Errors != 0 {
		t.Fatalf("refused %d, errors %d of %d queries: a full station must refuse, never error",
			rep.Refused, rep.Errors, rep.Queries)
	}
	if rep.Agg.N == 0 {
		t.Fatalf("no query of %d answered once the held slot was released", rep.Queries)
	}
	accounted(t, rep.Result)
}

// releasingSession is a deployment session that calls release once one of
// its queries is refused.
type releasingSession struct {
	s       *deploy.Session
	release func()
}

func (r releasingSession) Ask(ctx context.Context, q scheme.Query) (scheme.Result, fleet.Air) {
	res, _ := r.s.Query(ctx, q.S, q.T)
	air := r.s.Air()
	if air.Outcome == fleet.Refused {
		r.release()
	}
	return res, air
}

// TestRunRemote drives a whole fleet over UDP loopback: every query dials
// the wire broadcaster, answers correctly, and the lost/missed split holds
// (wire gaps in MissedPackets, wire gaps + injected loss in LostPackets).
func TestRunRemote(t *testing.T) {
	g := conformance.Network(t, 250, 350, 7)
	srv := liveDeployment(t, g, deploy.WithCache("fleet-test/remote"))
	b, err := srv.ServeWire(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	d, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}),
		deploy.WithCache("fleet-test/remote"), deploy.WithRemote(b.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}

	rep, err := d.RunFleet(context.Background(), fleet.Options{
		Clients: 12, Queries: 60, PoolSize: 30, Loss: 0.03, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Result
	if res.Queries != 60 || res.Errors != 0 {
		t.Fatalf("remote fleet: %d queries, %d errors", res.Queries, res.Errors)
	}
	if res.Agg.N != 60 {
		t.Fatalf("aggregate holds %d queries, want 60", res.Agg.N)
	}
	if res.Rate != srv.Rate() {
		t.Errorf("rate %d, want the broadcaster's %d", res.Rate, srv.Rate())
	}
	// Loopback at a virtual clock loses nothing on the wire, so every lost
	// packet is injected loss: MissedPackets (the wire-gap slot) stays 0
	// while LostPackets reflects the 3% draw.
	if res.MissedPackets != 0 {
		t.Errorf("loopback run reports %d wire-lost packets", res.MissedPackets)
	}
	if res.LostPackets == 0 {
		t.Errorf("3%% injected loss produced no lost packets over %d queries", res.Queries)
	}
	if res.Tuning.P50 <= 0 || res.Latency.P50 <= 0 {
		t.Errorf("remote tails empty: tuning %+v latency %+v", res.Tuning, res.Latency)
	}
}

// TestRunRemoteNobodyListening fails fast with an error — the one probe a
// remote deployment makes — not a hang or 60 per-query timeouts.
func TestRunRemoteNobodyListening(t *testing.T) {
	g := conformance.Network(t, 200, 280, 3)
	done := make(chan error, 1)
	go func() {
		_, err := deploy.Deploy(g, deploy.WithParams(deploy.Params{Regions: 8}), deploy.WithRemote("127.0.0.1:9"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("deploying against a dead port succeeded")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deploying against a dead port hung")
	}
}
