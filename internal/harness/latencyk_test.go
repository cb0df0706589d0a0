package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// latencyVsKGolden is the latency-versus-K sweep at scale 0.05, 30 queries,
// seed 2010: NR at 15% loss over the five networks, offline. The sweep is
// deterministic on any hardware, so the rows are compared exactly — a
// change that moves one changed what a client receives or when. To re-record
// after an intended change, paste the rows the failing test prints.
var latencyVsKGolden = []LatencyVsKRow{
	{"milan", 1, 1234.0333333333333, 234.73333333333332, 0},
	{"milan", 2, 916, 249.06666666666666, 12.2},
	{"milan", 4, 713.3, 243.63333333333333, 23.1},
	{"germany", 1, 2254.5333333333333, 398.6, 0},
	{"germany", 2, 1419.7, 402.8666666666667, 20.266666666666666},
	{"germany", 4, 1037.8, 390.3, 35.36666666666667},
	{"argentina", 1, 5802.633333333333, 859.7, 0},
	{"argentina", 2, 4240.166666666667, 871.6333333333333, 34.36666666666667},
	{"argentina", 4, 2855.9666666666667, 851.1666666666666, 60.43333333333333},
	{"india", 1, 11086.533333333333, 1415.8333333333333, 0},
	{"india", 2, 7410.766666666666, 1441.3, 49.233333333333334},
	{"india", 4, 5129.6, 1432.2666666666667, 95.8},
	{"sanfrancisco", 1, 15291.9, 1558.2, 0},
	{"sanfrancisco", 2, 9297.866666666667, 1560.6666666666667, 36.6},
	{"sanfrancisco", 4, 6961.033333333334, 1583.9333333333334, 96.5},
}

// TestLatencyVsKGolden pins the multi-channel trajectory: mean access
// latency, tuning time and channel hops per (network, K) equal the committed
// rows to the last digit.
func TestLatencyVsKGolden(t *testing.T) {
	rows, err := LatencyVsK(Config{Scale: 0.05, Queries: 30, Seed: 2010})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(rows, latencyVsKGolden) {
		return
	}
	var fresh strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&fresh, "\t{%q, %d, %v, %v, %v},\n", r.Network, r.K, r.MeanLatency, r.MeanTuning, r.MeanHops)
	}
	t.Fatalf("latency-vs-K rows differ from latencyVsKGolden; fresh rows:\n%s", fresh.String())
}
