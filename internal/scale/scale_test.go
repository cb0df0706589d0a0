// Package scale holds the continent-scale out-of-core test: generate a
// >=1e7-arc synthetic network, stream its broadcast cycle to disk without
// materializing the packets, serve queries from the mmap'd file, and
// assert the whole run stays under a fixed peak-RSS budget.
//
// The test is expensive (minutes, gigabytes of page cache) so it is
// env-gated like the soak and chaos suites: set SCALE=1 to run it, and
// optionally SCALE_RSS_MB to move the peak-RSS budget (default 4096).
package scale

import (
	"bufio"
	"crypto/sha256"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/baseline/djair"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/netgen"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/workload"
)

// peakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc/self/status. Linux only; ok=false elsewhere.
func peakRSSBytes(t *testing.T) (int64, bool) {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}

func sha256File(t *testing.T, path string) [32]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<20)); err != nil {
		t.Fatal(err)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestContinentScale is the acceptance test for the out-of-core path
// (DESIGN.md §13). It builds the "continent" preset (10.4M directed
// arcs), writes the graph and the DJ broadcast cycle to disk in streaming
// mode, mmaps both back, answers a query from the mapped data, checks the
// answer against a direct Dijkstra, and asserts peak RSS stayed under the
// budget — the proof that no stage materialized the full packet set.
func TestContinentScale(t *testing.T) {
	if os.Getenv("SCALE") == "" {
		t.Skip("continent-scale test skipped; set SCALE=1 (and optionally SCALE_RSS_MB) to run")
	}
	budgetMB := int64(4096)
	if s := os.Getenv("SCALE_RSS_MB"); s != "" {
		mb, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SCALE_RSS_MB=%q: %v", s, err)
		}
		budgetMB = mb
	}

	dir := t.TempDir()
	p, err := netgen.PresetByName("continent")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Generate(2010)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() < 10_000_000 {
		t.Fatalf("continent preset carries %d arcs, want >= 1e7", g.NumArcs())
	}
	t.Logf("generated %d nodes, %d arcs", g.NumNodes(), g.NumArcs())

	// Reference answer on the heap graph, before it is released.
	src, dst := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	wantDist, _, _ := spath.PointToPoint(g, src, dst)

	// Stream the graph's CSR to disk and mmap it back: the serving side
	// works from the page cache, not the Go heap.
	graphPath := filepath.Join(dir, "continent.airm")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	gw := bufio.NewWriterSize(gf, 1<<20)
	if err := graph.WriteMapped(gw, g); err != nil {
		t.Fatal(err)
	}
	if err := gw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}

	mg, err := graph.MapFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	if mg.NumNodes() != g.NumNodes() || mg.NumArcs() != g.NumArcs() {
		t.Fatalf("mapped graph is %d/%d, heap graph %d/%d",
			mg.NumNodes(), mg.NumArcs(), g.NumNodes(), g.NumArcs())
	}

	// Stream the DJ broadcast cycle to disk: packets are emitted and
	// forgotten, never held as one slice.
	cyclePath := filepath.Join(dir, "continent.airc")
	cf, err := os.Create(cyclePath)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(cf, 1<<20)
	if err := djair.WriteCycle(bw, mg.Graph, 1); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(cyclePath)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("streamed cycle: %.1f MB on disk", float64(fi.Size())/(1<<20))

	// Release the heap graph; everything from here serves off the maps.
	g = nil
	runtime.GC()

	md, err := mmap.Open(cyclePath)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	cyc, err := broadcast.DecodeCycle(md.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	srv := djair.FromCycle(mg.Graph, cyc)
	if srv.Cycle().Len() != cyc.Len() {
		t.Fatalf("server cycle %d packets, decoded %d", srv.Cycle().Len(), cyc.Len())
	}
	t.Logf("decoded %d packets from the mmap'd cycle", cyc.Len())

	// Round-trip stability at scale: re-encoding the decoded cycle must
	// reproduce the streamed file byte for byte.
	rtPath := filepath.Join(dir, "roundtrip.airc")
	rf, err := os.Create(rtPath)
	if err != nil {
		t.Fatal(err)
	}
	rw := bufio.NewWriterSize(rf, 1<<20)
	if err := broadcast.EncodeCycle(rw, cyc); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = rf.Close()
	if sha256File(t, rtPath) != sha256File(t, cyclePath) {
		t.Fatal("re-encoding the mmap'd cycle diverged from the streamed file")
	}
	if err := os.Remove(rtPath); err != nil {
		t.Fatal(err)
	}

	// One query answered entirely from mapped data.
	ch, err := broadcast.NewChannel(srv.Cycle(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tuner := broadcast.NewTuner(ch, 0)
	res, err := srv.NewClient().Query(tuner, scheme.QueryFor(mg.Graph, src, dst))
	if err != nil {
		t.Fatal(err)
	}
	if !workload.SameDist(res.Dist, wantDist) {
		t.Fatalf("on-air distance %v, Dijkstra reference %v", res.Dist, wantDist)
	}
	t.Logf("query %d->%d: dist %.1f (tuning %d, latency %d packets)",
		src, dst, res.Dist, res.Metrics.TuningPackets, res.Metrics.LatencyPackets)

	if peak, ok := peakRSSBytes(t); ok {
		t.Logf("peak RSS %.0f MB (budget %d MB)", float64(peak)/(1<<20), budgetMB)
		if peak > budgetMB<<20 {
			t.Fatalf("peak RSS %d MB exceeds the %d MB budget: some stage materialized the full working set",
				peak>>20, budgetMB)
		}
	} else {
		t.Log("peak RSS unavailable on this platform; budget not enforced")
	}
}
