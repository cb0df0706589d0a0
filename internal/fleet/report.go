package fleet

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// WriteTable renders the load-test summary every binary prints under its own
// "fleet" line: throughput, mean and tails of the three per-query factors,
// shed load and air loss when there was any, the per-channel breakdown of a
// multi-channel run, and the energy footer. lost is the wording of the
// air-loss line — what LostPackets are, and (with two %d) what the
// simulator and the air each contributed — which differs between an
// in-process station and a wire.
func (r Result) WriteTable(w io.Writer, lost string) {
	fmt.Fprintf(w, "\nthroughput  %.0f queries/sec\n\n", r.QPS)
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s\n", "per-query metric", "mean", "p50", "p95", "p99")
	row := func(name string, mean float64, q metrics.Quantiles, format string) {
		fmt.Fprintf(w, "%-22s %10s %10s %10s %10s\n", name,
			fmt.Sprintf(format, mean), fmt.Sprintf(format, q.P50),
			fmt.Sprintf(format, q.P95), fmt.Sprintf(format, q.P99))
	}
	row("tuning time (packets)", r.Agg.MeanTuning(), r.Tuning, "%.0f")
	row("access latency (pkts)", r.Agg.MeanLatency(), r.Latency, "%.0f")
	row("energy (joules)", r.MeanEnergy, r.Energy, "%.4f")
	if r.Degraded > 0 || r.Refused > 0 {
		fmt.Fprintf(w, "\nshed load   %d degraded answers (budget exceeded), %d refused (admission control)\n",
			r.Degraded, r.Refused)
	}
	if r.LostPackets > 0 || r.MissedPackets > 0 {
		fmt.Fprintf(w, "\nair loss    %d "+lost+"\n", r.LostPackets, r.LostPackets-r.MissedPackets, r.MissedPackets)
	}
	if len(r.Channels) > 0 {
		fmt.Fprintf(w, "\nmean channel hops per query: %.1f\n", r.MeanHops)
		fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %10s\n",
			"channel", "packets", "queries", "qps", "p50", "p95", "p99")
		for _, c := range r.Channels {
			fmt.Fprintf(w, "%-10d %10d %10d %10.0f %10.0f %10.0f %10.0f\n",
				c.Channel, c.Packets, c.Queries, c.QPS, c.Tuning.P50, c.Tuning.P95, c.Tuning.P99)
		}
	}
	fmt.Fprintf(w, "\nenergy costed at %.3g Mbps; peak client memory %.1f KB\n",
		float64(r.Rate)/1e6, float64(r.Agg.MaxPeakMem)/1024)
}
