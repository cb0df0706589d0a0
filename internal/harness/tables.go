package harness

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/workload"
)

// Table1Row is one row of Table 1: broadcast cycle length.
type Table1Row struct {
	Method  string
	Packets int
	SecFast float64 // 2 Mbps
	SecSlow float64 // 384 Kbps
}

// Table1 reproduces the paper's Table 1: the broadcast cycle length of
// every method on the default network, in packets and in seconds on the
// two reference 3G channels.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.Defaults()
	g, p, err := cfg.network(cfg.Preset)
	if err != nil {
		return nil, err
	}
	cfg.printf("Table 1 — broadcast cycle length (%s, %d nodes, %d edges, scale %.2f)\n",
		p.Name, p.Nodes, p.Edges, cfg.Scale)

	servers, err := cfg.servers(g, p.Name, MethodOrder)
	if err != nil {
		return nil, err
	}

	var rows []Table1Row
	cfg.printf("%-8s %10s %14s %16s\n", "Method", "Packets", "Sec (2Mbps)", "Sec (384Kbps)")
	for _, name := range MethodOrder {
		srv, ok := servers[name]
		if !ok {
			continue
		}
		n := srv.Cycle().Len()
		row := Table1Row{
			Method:  name,
			Packets: n,
			SecFast: metrics.PacketSeconds(n, metrics.RateFast),
			SecSlow: metrics.PacketSeconds(n, metrics.RateSlow),
		}
		rows = append(rows, row)
		cfg.printf("%-8s %10d %14.3f %16.3f\n", row.Method, row.Packets, row.SecFast, row.SecSlow)
	}
	return rows, nil
}

// Table2Row is one row of Table 2: per-network method applicability.
type Table2Row struct {
	Network  string
	Nodes    int
	Edges    int
	PeakMB   map[string]float64
	Feasible map[string]bool
}

// Table2 reproduces the paper's Table 2: which methods fit the reference
// device's heap on each network. Peak client memory is measured over a
// small query sample, inflated by the J2ME object-overhead factor, and
// compared against the (scale-adjusted) 8 MB heap budget.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.Defaults()
	budget := cfg.heapBudget()
	cfg.printf("Table 2 — method applicability per network (heap budget %.2f MB at scale %.2f)\n",
		budget/(1<<20), cfg.Scale)
	methods := []string{"AF", "LD", "DJ", "EB", "NR"}
	cfg.printf("%-14s %8s %8s", "Network", "Nodes", "Edges")
	for _, m := range methods {
		cfg.printf(" %12s", m)
	}
	cfg.printf("\n")

	var rows []Table2Row
	for _, preset := range netgen.Presets {
		g, p, err := cfg.network(preset.Name)
		if err != nil {
			return nil, err
		}
		servers, err := cfg.servers(g, p.Name, ComparableOrder)
		if err != nil {
			return nil, err
		}
		// A small sample suffices: full-cycle methods have deterministic
		// memory; EB/NR peak over queries.
		sample := min(cfg.Queries, 30)
		w := workload.Generate(g, sample, servers["DJ"].Cycle().Len(), cfg.Seed+7)
		row := Table2Row{
			Network: p.Name, Nodes: p.Nodes, Edges: p.Edges,
			PeakMB:   map[string]float64{},
			Feasible: map[string]bool{},
		}
		cfg.printf("%-14s %8d %8d", p.Name, p.Nodes, p.Edges)
		for _, m := range methods {
			mr, err := runWorkload(servers[m], w, 0, cfg.Seed)
			if err != nil {
				return nil, err
			}
			peak := float64(mr.Agg.MaxPeakMem) * metrics.J2MEOverheadFactor
			row.PeakMB[m] = peak / (1 << 20)
			row.Feasible[m] = peak <= budget
			mark := "-"
			if row.Feasible[m] {
				mark = "ok"
			}
			cfg.printf(" %7.2fMB %2s", row.PeakMB[m], mark)
		}
		cfg.printf("\n")
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3Row is one row of Table 3: server pre-computation time.
type Table3Row struct {
	Network string
	EBNR    time.Duration
	AF      time.Duration
	LD      time.Duration
}

// Table3 reproduces the paper's Table 3: pre-computation time per network
// for EB/NR (shared), ArcFlag and Landmark.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.Defaults()
	cfg.printf("Table 3 — pre-computation time (scale %.2f)\n", cfg.Scale)
	cfg.printf("%-14s %12s %12s %12s\n", "Network", "EB/NR", "ArcFlag", "Landmark")
	var rows []Table3Row
	for _, preset := range netgen.Presets {
		g, p, err := cfg.network(preset.Name)
		if err != nil {
			return nil, err
		}
		servers, err := cfg.servers(g, p.Name, ComparableOrder)
		if err != nil {
			return nil, err
		}
		row := Table3Row{
			Network: p.Name,
			EBNR:    servers["EB"].PrecomputeTime(),
			AF:      servers["AF"].PrecomputeTime(),
			LD:      servers["LD"].PrecomputeTime(),
		}
		rows = append(rows, row)
		cfg.printf("%-14s %12s %12s %12s\n", row.Network,
			row.EBNR.Round(time.Millisecond), row.AF.Round(time.Millisecond), row.LD.Round(time.Millisecond))
	}
	return rows, nil
}
