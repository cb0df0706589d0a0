package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/baseline/djair"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/multichannel"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/scheme"
	"repro/internal/servercache"
	"repro/internal/spath"
	"repro/internal/station"
	"repro/internal/wire"
)

// The micro-probes time one layer each through its public functions, with
// fixed iteration counts on a fixture built once per traced run. They are
// what an end-to-end change should be traced back to; bench/README.md
// records which end-to-end metric each is expected to move.
var probeDefs = []metricDef{
	{Name: "packet.decode_ns_per_packet", Unit: "ns", Better: lower},
	{Name: "packet.frame_encode_ns", Unit: "ns", Better: lower},
	{Name: "packet.frame_decode_ns", Unit: "ns", Better: lower},
	{Name: "broadcast.listen_ns_per_packet", Unit: "ns", Better: lower},
	{Name: "broadcast.cycle_encode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "broadcast.cycle_decode_ms", Unit: "ms", Better: lower},
	{Name: "station.tick_ns_per_packet", Unit: "ns", Better: lower},
	{Name: "station.subscribe_us", Unit: "us", Better: lower},
	{Name: "station.swap_to_air_ms", Unit: "ms", Better: lower},
	{Name: "multichannel.plan_build_ms", Unit: "ms", Better: lower},
	{Name: "multichannel.group_tick_ns_per_packet", Unit: "ns", Better: lower},
	{Name: "multichannel.offline_hop_query_us", Unit: "us", Better: lower},
	{Name: "wire.dial_us", Unit: "us", Better: lower},
	{Name: "wire.datagram_ns_per_packet", Unit: "ns", Better: lower},
	{Name: "wire.sparse_ns_per_position", Unit: "ns", Better: lower},
	{Name: "core.nr_query_us", Unit: "us", Better: lower},
	{Name: "core.eb_query_us", Unit: "us", Better: lower},
	{Name: "core.nr_allocs_per_query", Unit: "allocs", Better: lower},
	{Name: "core.eb_allocs_per_query", Unit: "allocs", Better: lower},
	{Name: "core.nr_encode_s", Unit: "s", Better: lower},
	{Name: "core.eb_encode_s", Unit: "s", Better: lower},
	{Name: "spath.p2p_us", Unit: "us", Better: lower},
	{Name: "netdata.encode_ns_per_node", Unit: "ns", Better: lower},
	{Name: "partition.kdtree_ms", Unit: "ms", Better: lower},
	{Name: "precompute.border_s", Unit: "s", Better: lower},
	{Name: "precompute.border_serial_s", Unit: "s", Better: lower},
	{Name: "precompute.parallel_speedup", Unit: "ratio", Better: higher},
	{Name: "servercache.hit_ns", Unit: "ns", Better: lower},
	{Name: "diskcache.put_mb_s", Unit: "MB/s", Better: higher},
	{Name: "diskcache.open_ms", Unit: "ms", Better: lower},
	{Name: "graph.mapfile_open_ms", Unit: "ms", Better: lower},
	{Name: "update.delta_encode_us", Unit: "us", Better: lower},
	{Name: "update.withweights_ms", Unit: "ms", Better: lower},
	{Name: "deploy.session_overhead_us", Unit: "us", Better: lower},
	{Name: "fleet.run_qps", Unit: "1/s", Better: higher},
	{Name: "fleet.churn_qps", Unit: "1/s", Better: higher},
	{Name: "fleet.churn_stale_ratio", Unit: "ratio", Better: lower},
	{Name: "fleet.churn_swaps", Unit: "count", Better: higher},
	{Name: "harness.fig10_s", Unit: "s", Better: lower},
	{Name: "baseline.dj_lossy_query_ms", Unit: "ms", Better: lower},
}

// probeSeed fixes the probes' own inputs: they characterise layers on a
// constant fixture and do not vary with -seed.
const probeSeed = 2010

// fixture is what the probes share: the network, its partition and border
// pre-computation, and both paper methods built on them.
type fixture struct {
	g       *graph.Graph
	kd      *partition.KDTree
	regions *precompute.Regions
	border  *precompute.BorderData
	nr      *core.NR
	eb      *core.EB
	pairs   []pair
	scratch string
	// quick divides iteration counts for the tests' shrunken network.
	quick bool
}

// n scales an iteration count.
func (f *fixture) n(full int) int {
	if f.quick {
		return max(full/20, 2)
	}
	return full
}

// secondsOf times one call.
func secondsOf(fn func()) float64 {
	began := time.Now()
	fn()
	return time.Since(began).Seconds()
}

// nsPerOp times n calls of fn(i) and returns the mean nanoseconds per call.
func nsPerOp(n int, fn func(i int)) float64 {
	began := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(began)) / float64(n)
}

// runProbes builds the fixture (timing the build layers as it goes) and
// runs every probe, adding one metric per probeDefs entry to out.
func runProbes(ctx context.Context, o options, out metrics) error {
	scratch, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	f := &fixture{scratch: scratch, quick: o.scale < 1}
	if f.g, err = loadNetwork(o.scale); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(probeSeed))
	for len(f.pairs) < 512 {
		s, t := repro.NodeID(rng.Intn(f.g.NumNodes())), repro.NodeID(rng.Intn(f.g.NumNodes()))
		if s != t {
			f.pairs = append(f.pairs, pair{s, t})
		}
	}
	for _, probe := range []func(context.Context, *fixture, metrics) error{
		probeBuild, probePacket, probeBroadcast, probeStation, probeMultichannel, probeWire,
		probeClients, probeGraphLayers, probeCaches, probeUpdate, probeFleet, probeBaselines,
	} {
		if err := probe(ctx, f, out); err != nil {
			return err
		}
	}
	return nil
}

// probeBuild builds the fixture layer by layer: the kd partition, the
// border pre-computation (all cores, then one) and both cycle assemblies.
func probeBuild(_ context.Context, f *fixture, out metrics) error {
	opts := core.DefaultOptions()
	var err error
	out.set("partition.kdtree_ms", 1000*secondsOf(func() { f.kd, err = partition.NewKDTree(f.g, opts.Regions) }), "ms")
	if err != nil {
		return err
	}
	f.regions = precompute.BuildRegions(f.g, f.kd)
	parallel := secondsOf(func() { f.border = precompute.Compute(f.g, f.regions) })
	serial := secondsOf(func() { precompute.ComputeWorkers(f.g, f.regions, 1) })
	out.set("precompute.border_s", parallel, "s")
	out.set("precompute.border_serial_s", serial, "s")
	out.set("precompute.parallel_speedup", serial/parallel, "ratio")
	out.set("core.nr_encode_s", secondsOf(func() { f.nr, err = core.NewNRShared(f.g, f.kd, f.regions, f.border, opts) }), "s")
	if err != nil {
		return err
	}
	out.set("core.eb_encode_s", secondsOf(func() { f.eb = core.NewEBShared(f.g, f.kd, f.regions, f.border, opts) }), "s")
	return nil
}

func probePacket(_ context.Context, f *fixture, out metrics) error {
	pkts := f.nr.Cycle().Packets
	reps := f.n(40)
	records := 0
	out.set("packet.decode_ns_per_packet", nsPerOp(reps*len(pkts), func(i int) {
		packet.ForEachRecord(pkts[i%len(pkts)].Payload, func(uint8, []byte) bool { records++; return true })
	}), "ns")
	if records == 0 {
		return fmt.Errorf("packet probe decoded no records")
	}
	buf := make([]byte, 0, packet.MaxFrameSize)
	out.set("packet.frame_encode_ns", nsPerOp(reps*len(pkts), func(i int) {
		buf = packet.AppendFrame(buf[:0], uint64(i), uint32(len(pkts)), pkts[i%len(pkts)])
	}), "ns")
	frames := make([][]byte, len(pkts))
	for i, p := range pkts {
		frames[i] = packet.AppendFrame(nil, uint64(i), uint32(len(pkts)), p)
	}
	var decodeErr error
	out.set("packet.frame_decode_ns", nsPerOp(reps*len(pkts), func(i int) {
		if _, err := packet.DecodeFrame(frames[i%len(frames)]); err != nil {
			decodeErr = err
		}
	}), "ns")
	return decodeErr
}

func probeBroadcast(_ context.Context, f *fixture, out metrics) error {
	cyc := f.nr.Cycle()
	ch, err := broadcast.NewChannel(cyc, 0, 0)
	if err != nil {
		return err
	}
	t := broadcast.NewTuner(ch, 0)
	out.set("broadcast.listen_ns_per_packet", nsPerOp(f.n(40)*cyc.Len(), func(int) { t.Listen() }), "ns")

	var enc bytes.Buffer
	reps := f.n(20)
	secs := secondsOf(func() {
		for i := 0; i < reps && err == nil; i++ {
			enc.Reset()
			err = broadcast.EncodeCycle(&enc, cyc)
		}
	})
	if err != nil {
		return err
	}
	out.set("broadcast.cycle_encode_mb_s", float64(reps*enc.Len())/1e6/secs, "MB/s")
	out.set("broadcast.cycle_decode_ms", nsPerOp(reps, func(int) {
		if _, derr := broadcast.DecodeCycle(enc.Bytes()); derr != nil {
			err = derr
		}
	})/1e6, "ms")
	return err
}

func probeStation(ctx context.Context, f *fixture, out metrics) error {
	cyc := f.nr.Cycle()
	st, err := station.New(cyc, station.Config{})
	if err != nil {
		return err
	}
	if err := st.Start(ctx); err != nil {
		return err
	}
	defer st.Stop()
	sub, err := st.Subscribe(0, 1)
	if err != nil {
		return err
	}
	start := sub.Start()
	out.set("station.tick_ns_per_packet", nsPerOp(f.n(40)*cyc.Len(), func(i int) { sub.At(start + i) }), "ns")
	sub.Close()

	out.set("station.subscribe_us", nsPerOp(f.n(2000), func(int) {
		s, serr := st.Subscribe(0, 1)
		if serr != nil {
			err = serr
			return
		}
		s.Close()
	})/1e3, "us")
	if err != nil {
		return err
	}

	// A version-1 copy of the cycle, swapped in under a draining listener:
	// the time from Swap to the new version on the air is the rest of the
	// outgoing cycle at the station's tick cost.
	next := &broadcast.Cycle{Packets: append([]packet.Packet(nil), cyc.Packets...), Sections: cyc.Sections}
	next.SetVersion(1)
	began := time.Now()
	if err := swapUnderListener(st, next); err != nil {
		return err
	}
	out.set("station.swap_to_air_ms", float64(time.Since(began))/float64(time.Millisecond), "ms")
	return nil
}

func probeMultichannel(ctx context.Context, f *fixture, out metrics) error {
	var plan *multichannel.Plan
	var err error
	out.set("multichannel.plan_build_ms", 1000*secondsOf(func() {
		plan, err = multichannel.Build(f.eb.Cycle(), 4, multichannel.PlanOptions{})
	}), "ms")
	if err != nil {
		return err
	}
	mst, err := multichannel.NewStation(plan, station.Config{})
	if err != nil {
		return err
	}
	if err := mst.Start(ctx); err != nil {
		return err
	}
	defer mst.Stop()
	rx, err := mst.Subscribe(0, 1, multichannel.RxOptions{})
	if err != nil {
		return err
	}
	start := rx.StartPos()
	out.set("multichannel.group_tick_ns_per_packet", nsPerOp(f.n(10)*plan.LogicalLen(), func(i int) { rx.At(start + i) }), "ns")
	rx.Close()

	air, err := multichannel.NewAir(plan, lossRate, probeSeed)
	if err != nil {
		return err
	}
	client := f.eb.NewClient()
	out.set("multichannel.offline_hop_query_us", nsPerOp(f.n(300), func(i int) {
		q := f.pairs[i%len(f.pairs)]
		t, _, terr := air.Tuner(7919*i, multichannel.RxOptions{Channel: i % 4})
		if terr != nil {
			err = terr
			return
		}
		if _, qerr := client.Query(t, scheme.QueryFor(f.g, q.s, q.t)); qerr != nil {
			err = qerr
		}
	})/1e3, "us")
	return err
}

func probeWire(ctx context.Context, f *fixture, out metrics) error {
	cyc := f.nr.Cycle()
	st, err := station.New(cyc, station.Config{})
	if err != nil {
		return err
	}
	if err := st.Start(ctx); err != nil {
		return err
	}
	defer st.Stop()
	b, err := wire.NewBroadcaster("127.0.0.1:0", st, wire.BroadcasterOptions{})
	if err != nil {
		return err
	}
	defer b.Close()
	addr := b.Addr().String()

	out.set("wire.dial_us", nsPerOp(f.n(200), func(int) {
		rx, derr := wire.Dial(addr, wire.ReceiverOptions{})
		if derr != nil {
			err = derr
			return
		}
		rx.Close()
	})/1e3, "us")
	if err != nil {
		return err
	}

	// One feed call per position, contiguous and then every 64th: the
	// second shows what a sleeping radio pays for the air it skipped. A dead
	// wire aborts the feed by panic; RecoverCancel turns it into an error.
	listen := func(n, stride int) (ns float64, err error) {
		rx, err := wire.Dial(addr, wire.ReceiverOptions{})
		if err != nil {
			return 0, err
		}
		defer rx.Close()
		defer broadcast.RecoverCancel(&err)
		start := rx.Start()
		return nsPerOp(n, func(i int) { rx.At(start + i*stride) }), nil
	}
	ns, err := listen(f.n(4)*cyc.Len(), 1)
	if err != nil {
		return err
	}
	out.set("wire.datagram_ns_per_packet", ns, "ns")
	if ns, err = listen(f.n(2000), 64); err != nil {
		return err
	}
	out.set("wire.sparse_ns_per_position", ns, "ns")
	return nil
}

// probeClients times the two paper clients on a lossless offline channel,
// raw: client.Query on a tuner. For NR the same queries also go through a
// Session, alternating with the raw ones so machine drift cancels; the
// difference is what the deployment layer adds per query.
func probeClients(ctx context.Context, f *fixture, out metrics) error {
	n := f.n(400)
	d, err := repro.Deploy(f.g, repro.WithMethod(repro.NR))
	if err != nil {
		return err
	}
	sess, err := d.Session(ctx, repro.SessionOptions{})
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		srv  scheme.Server
		sess *repro.Session
	}{{"nr", f.nr, sess}, {"eb", f.eb, nil}} {
		ch, err := broadcast.NewChannel(c.srv.Cycle(), 0, 0)
		if err != nil {
			return err
		}
		client := c.srv.NewClient()
		cursor := 0
		var raw, viaSession time.Duration
		var mallocs uint64
		var before, after runtime.MemStats
		for i := 0; i < n; i++ {
			q := f.pairs[i%len(f.pairs)]
			runtime.ReadMemStats(&before)
			began := time.Now()
			t := broadcast.NewTuner(ch, cursor)
			if _, err := client.Query(t, scheme.QueryFor(f.g, q.s, q.t)); err != nil {
				return err
			}
			cursor = t.Pos()
			raw += time.Since(began)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			if c.sess != nil {
				began = time.Now()
				if _, err := c.sess.Query(ctx, q.s, q.t); err != nil {
					return err
				}
				viaSession += time.Since(began)
			}
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
		out.set("core."+c.name+"_query_us", us(raw), "us")
		out.set("core."+c.name+"_allocs_per_query", float64(mallocs)/float64(n), "allocs")
		if c.sess != nil {
			out.set("deploy.session_overhead_us", us(viaSession-raw), "us")
		}
	}
	return nil
}

func probeGraphLayers(_ context.Context, f *fixture, out metrics) error {
	out.set("spath.p2p_us", nsPerOp(f.n(200), func(i int) {
		q := f.pairs[i%len(f.pairs)]
		spath.PointToPoint(f.g, q.s, q.t)
	})/1e3, "us")

	nodes := make([]graph.NodeID, f.g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	reps := f.n(20)
	secs := secondsOf(func() {
		for i := 0; i < reps; i++ {
			netdata.EncodeNodes(f.g, nodes, f.regions.IsBorder, nil)
		}
	})
	out.set("netdata.encode_ns_per_node", 1e9*secs/float64(reps*len(nodes)), "ns")

	path := filepath.Join(f.scratch, "graph.airm")
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteMapped(file, f.g); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	out.set("graph.mapfile_open_ms", nsPerOp(f.n(200), func(int) {
		mg, merr := graph.MapFile(path)
		if merr != nil {
			err = merr
			return
		}
		mg.Close()
	})/1e6, "ms")
	return err
}

func probeCaches(_ context.Context, f *fixture, out metrics) error {
	key := servercache.Key{Network: "bench/probe", Scheme: "fixture"}
	build := func() (*core.NR, error) { return f.nr, nil }
	if _, err := servercache.Get(key, build); err != nil {
		return err
	}
	out.set("servercache.hit_ns", nsPerOp(f.n(1_000_000), func(int) { servercache.Get(key, build) }), "ns")

	var enc bytes.Buffer
	if err := broadcast.EncodeCycle(&enc, f.nr.Cycle()); err != nil {
		return err
	}
	dc, err := diskcache.Open(filepath.Join(f.scratch, "dc"), 0)
	if err != nil {
		return err
	}
	defer dc.Close()
	reps := f.n(40)
	secs := secondsOf(func() {
		for i := 0; i < reps && err == nil; i++ {
			err = dc.Put(fmt.Sprintf("cycle-%d", i), enc.Bytes())
		}
	})
	if err != nil {
		return err
	}
	out.set("diskcache.put_mb_s", float64(reps*enc.Len())/1e6/secs, "MB/s")
	out.set("diskcache.open_ms", nsPerOp(reps, func(i int) {
		m, ok := dc.Map(fmt.Sprintf("cycle-%d", i))
		if !ok {
			err = fmt.Errorf("diskcache probe: entry %d missing", i)
			return
		}
		m.Close()
	})/1e6, "ms")
	return err
}

func probeUpdate(_ context.Context, f *fixture, out metrics) error {
	rng := rand.New(rand.NewSource(probeSeed))
	ups := make([]graph.WeightUpdate, updateBatch)
	arcs := make([]packet.DeltaArc, updateBatch)
	for i := range ups {
		from, to, w := f.g.ArcAt(rng.Intn(f.g.NumArcs()))
		ups[i] = graph.WeightUpdate{From: from, To: to, Weight: w * 1.5}
		arcs[i] = packet.DeltaArc{From: uint32(from), To: uint32(to), Weight: w * 1.5}
	}
	var err error
	out.set("update.withweights_ms", nsPerOp(f.n(200), func(int) {
		if _, werr := f.g.WithWeights(ups); werr != nil {
			err = werr
		}
	})/1e6, "ms")
	// What Manager.Apply does besides the rebuild: encode the patch, append
	// it as the cycle's trailer, stamp the version.
	out.set("update.delta_encode_us", nsPerOp(f.n(40), func(int) {
		delta := packet.EncodeDelta(1, 0, arcs)
		cyc, terr := broadcast.WithTrailer(f.nr.Cycle(), packet.KindDelta, -1, "delta v1", delta)
		if terr != nil {
			err = terr
			return
		}
		cyc.SetVersion(1)
	})/1e3, "us")
	return err
}

// probeFleet runs the repo's own fleet engine: a plain 2-client fleet on
// the fixture's network, and a churn fleet (reads beside rebuilds and
// swaps) on a quarter-size one. On 2 cores the churn numbers measure the
// scheduler as much as the program, which is why nothing gates on them.
func probeFleet(ctx context.Context, f *fixture, out metrics) error {
	d, err := repro.Deploy(f.g, repro.WithMethod(repro.NR), repro.WithLive(repro.StationConfig{}))
	if err != nil {
		return err
	}
	rep, err := d.RunFleet(ctx, repro.FleetOptions{Clients: 2, Queries: f.n(400), PoolSize: f.n(200), Loss: lossRate, Seed: probeSeed})
	d.Close()
	if err != nil {
		return err
	}
	if rep.Errors+rep.Degraded+rep.Refused > 0 {
		return fmt.Errorf("fleet probe: %d errors, %d degraded, %d refused", rep.Errors, rep.Degraded, rep.Refused)
	}
	out.set("fleet.run_qps", rep.QPS, "1/s")

	small, err := loadNetwork(f.smallScale())
	if err != nil {
		return err
	}
	d, err = repro.Deploy(small, repro.WithMethod(repro.NR), repro.WithLive(repro.StationConfig{}),
		repro.WithUpdates(repro.UpdateConfig{Batches: 3, BatchSize: updateBatch, Seed: probeSeed}))
	if err != nil {
		return err
	}
	rep, err = d.RunFleet(ctx, repro.FleetOptions{Clients: 2, Queries: f.n(1200), PoolSize: f.n(200), Loss: lossRate, Seed: probeSeed})
	d.Close()
	if err != nil {
		return err
	}
	if rep.Churn == nil || rep.Churn.UpdateErr != nil || rep.Errors+rep.Degraded+rep.Refused > 0 {
		return fmt.Errorf("churn probe: %d errors, %d degraded, %d refused, report %+v", rep.Errors, rep.Degraded, rep.Refused, rep.Churn)
	}
	out.set("fleet.churn_qps", rep.QPS, "1/s")
	out.set("fleet.churn_stale_ratio", float64(rep.Churn.StaleQueries)/float64(max(rep.Agg.N, 1)), "ratio")
	out.set("fleet.churn_swaps", float64(rep.Churn.Swaps), "count")
	return nil
}

// smallScale is the network scale of the probes that would take minutes at
// full size.
func (f *fixture) smallScale() float64 {
	if f.quick {
		return 0.02
	}
	return 0.25
}

// probeBaselines covers the methods no workload runs: the Figure 10 sweep
// (DJ, AF, LD, SPQ, HiTi beside EB and NR, at scale 0.05) and DJ under
// loss, whose recovery cost no other number records.
func probeBaselines(_ context.Context, f *fixture, out metrics) error {
	var err error
	out.set("harness.fig10_s", secondsOf(func() {
		_, err = harness.Figure10(harness.Config{Scale: 0.05, Queries: f.n(200), Seed: probeSeed, NoCache: true})
	}), "s")
	if err != nil {
		return err
	}
	small, err := loadNetwork(f.smallScale())
	if err != nil {
		return err
	}
	dj := djair.New(small)
	ch, err := broadcast.NewChannel(dj.Cycle(), lossRate, probeSeed)
	if err != nil {
		return err
	}
	client := dj.NewClient()
	rng := rand.New(rand.NewSource(probeSeed))
	out.set("baseline.dj_lossy_query_ms", nsPerOp(f.n(6), func(i int) {
		s, t := graph.NodeID(rng.Intn(small.NumNodes())), graph.NodeID(rng.Intn(small.NumNodes()))
		if _, qerr := client.Query(broadcast.NewTuner(ch, 7919*i), scheme.QueryFor(small, s, t)); qerr != nil {
			err = qerr
		}
	})/1e6, "ms")
	return err
}
