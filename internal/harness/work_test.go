package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/netgen"
	"repro/internal/packet"
	"repro/internal/workload"
)

// workRow is one method's feed work over the 30-query seed-2010 workload
// at 5% loss on milan@0.05, on a plain single channel: how many At and
// Span calls the clients made and how many positions those calls served.
type workRow struct {
	Method    string
	At        int
	Span      int
	Positions int
}

// workGolden pins how each client asks the feed for its packets. The
// positions are the tuning time the feed saw and move only with
// methodGolden; the call columns move when a client changes how it
// receives the same positions (one At per packet, or runs as spans). To
// re-record after an intended change, paste the rows the failing test
// prints.
var workGolden = []workRow{
	{"EB", 667, 242, 7402},
	{"NR", 416, 348, 6372},
	{"DJ", 533, 181, 10253},
	{"AF", 953, 311, 18773},
	{"LD", 785, 250, 14735},
	{"SPQ", 2290, 695, 44830},
	{"HiTi", 44144, 2490, 46905},
}

// countingFeed forwards a channel's Len, At and Span and counts the calls.
type countingFeed struct {
	ch  *broadcast.Channel
	row workRow
}

func (f *countingFeed) Len() int { return f.ch.Len() }

func (f *countingFeed) At(abs int) (packet.Packet, bool) {
	f.row.At++
	f.row.Positions++
	return f.ch.At(abs)
}

func (f *countingFeed) Span(abs, n int) ([]packet.Packet, uint64) {
	pkts, lost := f.ch.Span(abs, n)
	f.row.Span++
	f.row.Positions += len(pkts)
	return pkts, lost
}

// TestWorkGolden pins the feed calls of all seven methods (workGolden).
func TestWorkGolden(t *testing.T) {
	cfg := Config{Scale: 0.05, Queries: 30, Seed: 2010}
	preset := netgen.Presets[0].Name
	g, _, err := cfg.network(preset)
	if err != nil {
		t.Fatal(err)
	}
	var rows []workRow
	for _, m := range goldenMethods {
		srv, err := cfg.server(g, preset, m, cfg.params(g, m), nil)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := broadcast.NewChannel(srv.Cycle(), 0.05, 7)
		if err != nil {
			t.Fatal(err)
		}
		feed := &countingFeed{ch: ch, row: workRow{Method: string(m)}}
		client := srv.NewClient()
		for qi, q := range workload.Generate(g, cfg.Queries, srv.Cycle().Len(), cfg.Seed).Queries {
			if _, err := client.Query(broadcast.NewFeedTuner(feed, q.TuneIn), q.Query); err != nil {
				t.Fatalf("%s query %d: %v", m, qi, err)
			}
		}
		rows = append(rows, feed.row)
	}
	if slices.Equal(rows, workGolden) {
		return
	}
	var fresh strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&fresh, "\t{%q, %d, %d, %d},\n", r.Method, r.At, r.Span, r.Positions)
	}
	t.Fatalf("work rows differ from workGolden; fresh rows:\n%s", fresh.String())
}

// allocBound caps each client's heap allocations per repeat query on
// TestWorkGolden's network, workload and loss. A client keeps its collector
// and search (scheme.Local) and its own decode scratch across queries, so a
// repeat query allocates little beyond its tuner, its path and its aux
// records: a client that builds a fresh collector and search per query
// allocates about 50 more. AF, LD and SPQ decode their aux records into
// fresh maps, whose allocation count is not fixed, so every row is an upper
// bound a few allocations or a few dozen above the count measured (8, 8, 6,
// 4 767, 722, 5 827, 13), not an exact row.
var allocBound = map[build.Method]float64{
	build.EB:   10,
	build.NR:   10,
	build.DJ:   8,
	build.AF:   4800,
	build.LD:   760,
	build.SPQ:  5860,
	build.HiTi: 16,
}

// TestRepeatQueryAllocs bounds testing.AllocsPerRun of a repeat query on
// one client of each method (allocBound), after the client has answered
// the whole workload once.
func TestRepeatQueryAllocs(t *testing.T) {
	cfg := Config{Scale: 0.05, Queries: 30, Seed: 2010}
	preset := netgen.Presets[0].Name
	g, _, err := cfg.network(preset)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range goldenMethods {
		srv, err := cfg.server(g, preset, m, cfg.params(g, m), nil)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := broadcast.NewChannel(srv.Cycle(), 0.05, 7)
		if err != nil {
			t.Fatal(err)
		}
		client := srv.NewClient()
		qs := workload.Generate(g, cfg.Queries, srv.Cycle().Len(), cfg.Seed).Queries
		for qi, q := range qs {
			if _, err := client.Query(broadcast.NewTuner(ch, q.TuneIn), q.Query); err != nil {
				t.Fatalf("%s query %d: %v", m, qi, err)
			}
		}
		q := qs[0]
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := client.Query(broadcast.NewTuner(ch, q.TuneIn), q.Query); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > allocBound[m] {
			t.Errorf("%s: %.0f allocs per repeat query, bound %.0f", m, allocs, allocBound[m])
		}
	}
}
