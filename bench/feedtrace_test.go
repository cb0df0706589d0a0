package main

import (
	"context"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/station"
	"repro/internal/wire"
)

// faces reports which optional broadcast interfaces a feed satisfies.
func faces(f broadcast.Feed) (got [4]bool) {
	_, got[0] = f.(broadcast.Clocked)
	_, got[1] = f.(broadcast.Hopping)
	_, got[2] = f.(broadcast.Refreshable)
	_, got[3] = f.(broadcast.Prefetcher)
	return got
}

// A decorator that adds or drops an optional interface switches the tuner
// into another accounting mode: the traced run would measure a different
// program.
func TestDecoratorsKeepFeedInterfaces(t *testing.T) {
	g, err := loadNetwork(testScale)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := core.NewNR(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cyc := nr.Cycle()

	same := func(name string, bare, timed broadcast.Feed) {
		t.Helper()
		if b, d := faces(bare), faces(timed); b != d {
			t.Errorf("%s: bare feed is [clocked hopping refreshable prefetcher] = %v, decorated %v", name, b, d)
		}
	}

	ch, err := broadcast.NewChannel(cyc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	same("channel", ch, &timedChannel{ch: ch})

	plan, err := multichannel.Build(cyc, 2, multichannel.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	air, err := multichannel.NewAir(plan, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := air.Rx(0, multichannel.RxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same("multichannel rx", rx, &timedRx{rx: rx})

	st, err := station.New(cyc, station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	sub, err := st.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	same("station sub", sub, &timedSub{sub: sub})
	// An idle subscription holds a virtual-clock station once its buffer is
	// full; release it before anything else needs the air.
	sub.Close()

	b, err := wire.NewBroadcaster("127.0.0.1:0", st, wire.BroadcasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	recv, err := wire.Dial(b.Addr().String(), wire.ReceiverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	same("wire receiver", recv, &timedReceiver{rx: recv})
}

// The traced path re-implements Session's attach; on the offline channel,
// where the air is a function of the inputs, it must account exactly the
// packets the Session path does.
func TestTracedReplayCountsMatchUntraced(t *testing.T) {
	ctx := context.Background()
	sp, _ := specByName("offline_replay")
	g, err := loadNetwork(testScale)
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(41, g, 1, 200)
	r, _, err := setUp(ctx, sp, g, in, "bench/test/traced-vs-untraced", testCacheDir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	queries := plan(in.blocks[0], sp.clients)
	v := &verifier{}
	v.use(g)
	v.prime(in.blocks[0])

	sessions, err := r.open(ctx, in, sp.clients)
	if err != nil {
		t.Fatal(err)
	}
	untraced := runRound(queries, untracedAsk(ctx, sessions))
	untraced.settle(v, t.Logf)

	clients := []*tracedClient{newTracedClient(r, in, 0), newTracedClient(r, in, 1)}
	traced := runRound(queries, tracedAsk(ctx, r, clients, v))
	traced.Traced = true
	traced.settle(v, t.Logf)

	if untraced.Failed+traced.Failed > 0 || untraced.Answered != 200 || traced.Answered != 200 {
		t.Fatalf("untraced %d answered %d failed, traced %d answered %d failed",
			untraced.Answered, untraced.Failed, traced.Answered, traced.Failed)
	}
	if untraced.sumTuning != traced.sumTuning || untraced.sumLatency != traced.sumLatency || untraced.sumPeakMem != traced.sumPeakMem {
		t.Errorf("tuning/latency/peak-mem sums: untraced %d/%d/%d, traced %d/%d/%d",
			untraced.sumTuning, untraced.sumLatency, untraced.sumPeakMem,
			traced.sumTuning, traced.sumLatency, traced.sumPeakMem)
	}
	var st spanStats
	st.add(traced)
	if len(st.feedWaitUs) != 200 || mean(st.feedCalls) < 1 {
		t.Errorf("spans of %d queries, %.1f feed calls each", len(st.feedWaitUs), mean(st.feedCalls))
	}
}
