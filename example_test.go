package repro_test

// Compiled, executed godoc examples: one per deployment shape (offline,
// live, K-channel, spatial, churn) and one per client-side trade-off the
// paper discusses (packet loss, memory-bound processing, energy). These are
// the README quickstart and the repo's walkthroughs — CI runs them, so the
// documented API provably works, and only deterministic facts are printed
// (distances, packet counts and bytes offline, accounting on live runs).

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// Example builds the simplest deployment — one offline broadcast channel,
// the paper's model — and answers one shortest-path query on the air.
func Example() {
	g, err := repro.Generate(400, 520, 7)
	if err != nil {
		log.Fatal(err)
	}
	d, err := repro.Deploy(g, repro.WithMethod(repro.NR), repro.WithParams(repro.Params{Regions: 8}))
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	ctx := context.Background()
	s, err := d.Session(ctx, repro.SessionOptions{TuneIn: 1234})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Query(ctx, 17, 342)
	if err != nil {
		log.Fatal(err)
	}
	ref, _, _ := repro.ShortestPath(g, 17, 342)
	fmt.Printf("distance %.1f (reference %.1f)\n", res.Dist, ref)
	fmt.Printf("tuned %d packets\n", res.Metrics.TuningPackets)
	// Output:
	// distance 6742.6 (reference 6742.6)
	// tuned 152 packets
}

// ExampleDeployment_Session shows a lossy offline deployment: the channel
// drops 10% of packets deterministically, the client recovers what it
// lost in later cycles, and the answer stays exact.
func ExampleDeployment_Session() {
	g, err := repro.Generate(400, 520, 7)
	if err != nil {
		log.Fatal(err)
	}
	d, err := repro.Deploy(g,
		repro.WithMethod(repro.EB),
		repro.WithParams(repro.Params{Regions: 8}),
		repro.WithLoss(0.10, 42))
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	ctx := context.Background()
	s, err := d.Session(ctx, repro.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Query(ctx, 5, 211)
	if err != nil {
		log.Fatal(err)
	}
	ref, _, _ := repro.ShortestPath(g, 5, 211)
	fmt.Printf("exact despite loss: %v\n", res.Dist == ref || res.Dist-ref < 1e-3*(1+ref) && ref-res.Dist < 1e-3*(1+ref))
	// Output:
	// exact despite loss: true
}

// ExampleWithLoss is the paper's Section 6.2 robustness story on one query:
// the channel's loss rate climbs from perfect to a noisy 10% under NR, EB
// and DJ, every answer stays exact — the recovery strategies re-listen
// precisely what was lost — and the price is tuning time and latency.
// WithCache keys the server build in the shared build cache, so the loss
// rates of one method share a single pre-computation.
func ExampleWithLoss() {
	g, err := repro.Generate(400, 520, 7)
	if err != nil {
		log.Fatal(err)
	}
	ref, _, _ := repro.ShortestPath(g, 17, 342)
	ctx := context.Background()
	for _, m := range []repro.Method{repro.NR, repro.EB, repro.DJ} {
		fmt.Printf("%s:", m)
		for _, rate := range []float64{0, 0.01, 0.10} {
			d, err := repro.Deploy(g,
				repro.WithMethod(m),
				repro.WithParams(repro.Params{Regions: 8}),
				repro.WithLoss(rate, 1000),
				repro.WithCache("example/400/7"))
			if err != nil {
				log.Fatal(err)
			}
			s, err := d.Session(ctx, repro.SessionOptions{TuneIn: 77})
			if err != nil {
				log.Fatal(err)
			}
			res, err := s.Query(ctx, 17, 342)
			if err != nil {
				log.Fatal(err)
			}
			if res.Dist-ref > 1e-3*(1+ref) || ref-res.Dist > 1e-3*(1+ref) {
				log.Fatalf("%s at %.0f%% loss: distance %.1f, reference %.1f", m, rate*100, res.Dist, ref)
			}
			fmt.Printf("  %2.0f%% loss: tuned %3d, waited %4d", rate*100, res.Metrics.TuningPackets, res.Metrics.LatencyPackets)
			d.Close()
		}
		fmt.Println()
	}
	// Output:
	// NR:   0% loss: tuned 152, waited  203   1% loss: tuned 153, waited  378  10% loss: tuned 171, waited  398
	// EB:   0% loss: tuned 126, waited  208   1% loss: tuned 127, waited  386  10% loss: tuned 143, waited  586
	// DJ:   0% loss: tuned 151, waited  151   1% loss: tuned 151, waited  151  10% loss: tuned 167, waited  294
}

// ExampleParams_memoryBound is the paper's Section 6.1 on a constrained
// device: a memory-bound client contracts every region into its
// shortest-path skeleton the moment the region has been received, discards
// the raw data, and still answers exactly — at a lower peak working set.
func ExampleParams_memoryBound() {
	g, err := repro.Generate(400, 520, 7)
	if err != nil {
		log.Fatal(err)
	}
	ref, _, _ := repro.ShortestPath(g, 17, 342)
	ctx := context.Background()
	for _, m := range []repro.Method{repro.NR, repro.EB} {
		for _, memoryBound := range []bool{false, true} {
			d, err := repro.Deploy(g,
				repro.WithMethod(m),
				repro.WithParams(repro.Params{Regions: 8, MemoryBound: memoryBound}))
			if err != nil {
				log.Fatal(err)
			}
			s, err := d.Session(ctx, repro.SessionOptions{TuneIn: 1234})
			if err != nil {
				log.Fatal(err)
			}
			res, err := s.Query(ctx, 17, 342)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s memory-bound=%-5v distance %.1f (reference %.1f), peak memory %d bytes\n",
				m, memoryBound, res.Dist, ref, res.Metrics.PeakMemBytes)
			d.Close()
		}
	}
	// Output:
	// NR memory-bound=false distance 6742.6 (reference 6742.6), peak memory 19300 bytes
	// NR memory-bound=true  distance 6742.6 (reference 6742.6), peak memory 18372 bytes
	// EB memory-bound=false distance 6742.6 (reference 6742.6), peak memory 19780 bytes
	// EB memory-bound=true  distance 6742.6 (reference 6742.6), peak memory 18852 bytes
}

// ExampleEnergyJoules is the paper's motivating scenario — many independent
// devices navigating a city on one broadcast channel — priced per device:
// each trip is one Session tuning in at its own moment of a 1%-lossy
// broadcast, and the radio's share of the Section 3.1 energy model follows
// from the packets it received and slept through at 384 Kbps (the CPU share
// is measured wall time, so it is left out here).
func ExampleEnergyJoules() {
	g, err := repro.Generate(400, 520, 7)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	const trips = 20
	for _, m := range []repro.Method{repro.EB, repro.NR} {
		d, err := repro.Deploy(g,
			repro.WithMethod(m),
			repro.WithParams(repro.Params{Regions: 8}),
			repro.WithLoss(0.01, 5))
		if err != nil {
			log.Fatal(err)
		}
		tuning, latency, energy := 0, 0, 0.0
		for i := 0; i < trips; i++ {
			s, err := d.Session(ctx, repro.SessionOptions{TuneIn: 97 * i})
			if err != nil {
				log.Fatal(err)
			}
			res, err := s.Query(ctx, repro.NodeID(7*i), repro.NodeID(399-11*i))
			if err != nil {
				log.Fatal(err)
			}
			radio := res.Metrics
			radio.CPU = 0
			tuning += radio.TuningPackets
			latency += radio.LatencyPackets
			energy += repro.EnergyJoules(radio, repro.Rate384Kbps)
		}
		fmt.Printf("%s: cycle %d packets; per trip: tuned %d, waited %d, radio energy %.3f J\n",
			m, d.Cycle().Len(), tuning/trips, latency/trips, energy/trips)
		d.Close()
	}
	// Output:
	// EB: cycle 192 packets; per trip: tuned 125, waited 307, radio energy 0.489 J
	// NR: cycle 184 packets; per trip: tuned 128, waited 255, radio energy 0.494 J
}

// ExampleDeployment_RunFleet puts a live station on the air and
// load-tests it with a concurrent client fleet; every answer is verified
// against a server-side Dijkstra reference.
func ExampleDeployment_RunFleet() {
	g, err := repro.Generate(400, 520, 7)
	if err != nil {
		log.Fatal(err)
	}
	d, err := repro.Deploy(g,
		repro.WithParams(repro.Params{Regions: 8}),
		repro.WithLive(repro.StationConfig{}))
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	rep, err := d.RunFleet(context.Background(), repro.FleetOptions{Clients: 16, Queries: 64, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answered %d of %d queries, %d errors\n", rep.Agg.N, rep.Queries, rep.Errors)
	// Output:
	// answered 64 of 64 queries, 0 errors
}

// ExampleDeployment_RunFleet_channels shards the cycle across four
// parallel channels on one global clock; session radios hop between them
// guided by the on-air directory.
func ExampleDeployment_RunFleet_channels() {
	g, err := repro.Generate(400, 520, 7)
	if err != nil {
		log.Fatal(err)
	}
	d, err := repro.Deploy(g,
		repro.WithParams(repro.Params{Regions: 8}),
		repro.WithChannels(4),
		repro.WithLive(repro.StationConfig{}),
		repro.WithLoss(0.05, 9))
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	rep, err := d.RunFleet(context.Background(), repro.FleetOptions{Clients: 16, Queries: 64, Loss: 0.05, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answered %d of %d over %d channels, %d errors\n",
		rep.Agg.N, rep.Queries, len(rep.Channels), rep.Errors)
	// Output:
	// answered 64 of 64 over 4 channels, 0 errors
}

// ExampleDeployment_RunFleet_churn is the dynamic shape: a synthetic
// traffic feed mutates arc weights during the run, the station swaps to
// each rebuilt cycle version on the air, and clients that straddle a swap
// re-enter — every answer still verified against the reference of the
// network version it was computed on.
func ExampleDeployment_RunFleet_churn() {
	g, err := repro.Generate(400, 520, 7)
	if err != nil {
		log.Fatal(err)
	}
	d, err := repro.Deploy(g,
		repro.WithParams(repro.Params{Regions: 8}),
		repro.WithLive(repro.StationConfig{}),
		repro.WithUpdates(repro.UpdateConfig{Batches: 2, BatchSize: 10}))
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	rep, err := d.RunFleet(context.Background(), repro.FleetOptions{Clients: 8, Queries: 64, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answered %d of %d on churning air, %d errors, churn accounted: %v\n",
		rep.Agg.N, rep.Queries, rep.Errors, rep.Churn != nil)
	// Output:
	// answered 64 of 64 on churning air, 0 errors, churn accounted: true
}
