// Command airquery runs one shortest-path query end to end on a simulated
// broadcast channel and prints a verbose account: the method's cycle
// profile, the query answer versus the full-network reference, and every
// performance factor of the paper's Section 3.1 including the energy
// estimate.
//
// Usage:
//
//	airquery -method NR -preset germany -scale 0.1 -from 10 -to 4000
//	airquery -method EB -loss 0.05 -net mymap.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/workload"
)

func main() {
	var (
		method  = flag.String("method", "NR", "air-index method: EB|NR|DJ|AF|LD|SPQ|HiTi")
		preset  = flag.String("preset", "germany", "preset network")
		scale   = flag.Float64("scale", 0.1, "preset scale factor")
		netFile = flag.String("net", "", "read network from a text-format file instead of a preset")
		from    = flag.Int("from", 0, "source node id")
		to      = flag.Int("to", -1, "target node id (-1: farthest-ish node)")
		loss    = flag.Float64("loss", 0, "packet loss rate [0,1)")
		tuneIn  = flag.Int("tunein", 0, "cycle position at which the query is posed")
		seed    = flag.Int64("seed", 1, "random seed (network + channel)")
		regions = flag.Int("regions", 0, "regions/landmarks override (0 = method default)")
	)
	flag.Parse()

	g, err := loadNetwork(*netFile, *preset, *scale, *seed)
	if err != nil {
		fail(err)
	}
	if *to < 0 {
		*to = g.NumNodes() - 1 - *from
	}
	s, t := repro.NodeID(*from), repro.NodeID(*to)
	if int(s) >= g.NumNodes() || int(t) >= g.NumNodes() || s < 0 || t < 0 {
		fail(fmt.Errorf("node ids out of range [0,%d)", g.NumNodes()))
	}

	fmt.Printf("network: %d nodes, %d arcs\n", g.NumNodes(), g.NumArcs())
	d, err := repro.Deploy(g,
		repro.WithMethod(repro.Method(*method)),
		repro.WithParams(repro.Params{Regions: *regions, Landmarks: *regions}),
		repro.WithLoss(*loss, *seed))
	if err != nil {
		fail(err)
	}
	defer d.Close()
	srv := d.Server()
	cy := srv.Cycle()
	fmt.Printf("method:  %s\n", srv.Name())
	fmt.Printf("cycle:   %d packets (%.3fs at 2Mbps, %.3fs at 384Kbps)\n",
		cy.Len(),
		float64(cy.Len())*128*8/float64(repro.Rate2Mbps),
		float64(cy.Len())*128*8/float64(repro.Rate384Kbps))
	fmt.Printf("precomp: %s\n", srv.PrecomputeTime())

	ctx := context.Background()
	sess, err := d.Session(ctx, repro.SessionOptions{TuneIn: *tuneIn})
	if err != nil {
		fail(err)
	}
	res, err := sess.Query(ctx, s, t)
	if err != nil {
		fail(err)
	}
	ref, refPath, labelled := repro.ShortestPath(g, s, t)

	fmt.Printf("\nquery %d -> %d (tune-in at packet %d, loss %.1f%%)\n", s, t, *tuneIn, *loss*100)
	fmt.Printf("  distance:       %.3f (reference %.3f, %s)\n", res.Dist, ref, verdict(res.Dist, ref))
	if res.Path != nil {
		fmt.Printf("  path:           %d nodes (reference %d)\n", len(res.Path), len(refPath))
	} else {
		fmt.Printf("  path:           (distance-only method)\n")
	}
	fmt.Printf("  tuning time:    %d packets\n", res.Metrics.TuningPackets)
	fmt.Printf("  access latency: %d packets (%.2f cycles)\n",
		res.Metrics.LatencyPackets, float64(res.Metrics.LatencyPackets)/float64(cy.Len()))
	fmt.Printf("  peak memory:    %.1f KB\n", float64(res.Metrics.PeakMemBytes)/1024)
	fmt.Printf("  client CPU:     %s (reference search labelled %d nodes)\n", res.Metrics.CPU, labelled)
	fmt.Printf("  energy @2Mbps:  %.3f J\n", repro.EnergyJoules(res.Metrics, repro.Rate2Mbps))
	fmt.Printf("  energy @384K:   %.3f J\n", repro.EnergyJoules(res.Metrics, repro.Rate384Kbps))
}

func loadNetwork(netFile, preset string, scale float64, seed int64) (*repro.Graph, error) {
	if netFile == "" {
		return repro.GeneratePreset(preset, scale, seed)
	}
	f, err := os.Open(netFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return repro.ReadGraphText(f)
}

func verdict(got, want float64) string {
	if workload.SameDist(got, want) {
		return "exact"
	}
	return "MISMATCH"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "airquery:", err)
	os.Exit(1)
}
