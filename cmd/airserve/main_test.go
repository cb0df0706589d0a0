package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestSmokeFleetRun runs a tiny end-to-end load test on the germany preset
// and checks the report carries throughput and tail metrics.
func TestSmokeFleetRun(t *testing.T) {
	var out bytes.Buffer
	res, err := run(context.Background(), config{
		method:  "NR",
		preset:  "germany",
		scale:   0.02,
		clients: 12,
		queries: 36,
		seed:    7,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if res.Queries != 36 {
		t.Errorf("answered %d queries, want 36", res.Queries)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors\n%s", res.Errors, out.String())
	}
	if res.QPS <= 0 {
		t.Errorf("qps %v", res.QPS)
	}
	for _, want := range []string{"throughput", "queries/sec", "p50", "p95", "p99", "tuning time", "access latency", "energy"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestSmokeMultiChannel runs the fleet across four channels with loss and
// checks every answer verifies and the per-channel table renders.
func TestSmokeMultiChannel(t *testing.T) {
	var out bytes.Buffer
	res, err := run(context.Background(), config{
		method:   "NR",
		preset:   "germany",
		scale:    0.02,
		clients:  10,
		queries:  30,
		loss:     0.05,
		seed:     7,
		channels: 4,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if res.Queries != 30 || res.Errors != 0 {
		t.Errorf("queries %d errors %d\n%s", res.Queries, res.Errors, out.String())
	}
	if len(res.Channels) != 4 {
		t.Errorf("per-channel stats for %d channels, want 4", len(res.Channels))
	}
	var pkts, tuning int64
	for _, c := range res.Channels {
		pkts += c.Packets
	}
	tuning = int64(res.Agg.SumTuning)
	if pkts != tuning {
		t.Errorf("per-channel packets %d != total tuning %d", pkts, tuning)
	}
	for _, want := range []string{"over 4 channels", "channel", "hops"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestSmokeChurn runs the dynamic-network mode: update batches swap cycle
// versions under a live fleet, every answer verified against the version
// it was computed on, and the churn summary renders.
func TestSmokeChurn(t *testing.T) {
	var out bytes.Buffer
	res, err := run(context.Background(), config{
		method:      "NR",
		preset:      "germany",
		scale:       0.02,
		clients:     10,
		queries:     60,
		loss:        0.03,
		seed:        7,
		updates:     3,
		updateEvery: 2 * time.Millisecond,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if res.Queries != 60 || res.Errors != 0 {
		t.Errorf("queries %d errors %d\n%s", res.Queries, res.Errors, out.String())
	}
	for _, want := range []string{"update batches", "churn", "versions on the air"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	// -updates composes with -channels: the whole group swaps per version.
	out.Reset()
	res, err = run(context.Background(), config{
		method: "NR", preset: "germany", scale: 0.02, clients: 4, queries: 40,
		channels: 3, updates: 2, updateEvery: time.Millisecond,
	}, &out)
	if err != nil {
		t.Fatalf("churn over -channels: %v\n%s", err, out.String())
	}
	if res.Queries != 40 || res.Errors != 0 {
		t.Errorf("churn over -channels: queries %d errors %d\n%s", res.Queries, res.Errors, out.String())
	}
	for _, want := range []string{"over 3 channels", "versions on the air"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sharded churn report missing %q:\n%s", want, out.String())
		}
	}
}

// syncWriter is a bytes.Buffer safe to read while run writes to it from
// another goroutine (the serve-only smoke test tails the output for the
// bound wire address).
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSmokeListen runs airserve in serve-only mode (-listen, -clients 0)
// and tunes a remote session to its UDP socket: the full
// `airserve -listen` → repro.WithRemote path, end to end.
func TestSmokeListen(t *testing.T) {
	var out syncWriter
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := run(ctx, config{
			method: "NR", preset: "germany", scale: 0.02, seed: 7,
			listen: "127.0.0.1:0", clients: 0,
		}, &out)
		done <- err
	}()

	// Tail the output for the bound wire address.
	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		s := out.String()
		if i := strings.Index(s, "udp://"); i >= 0 {
			addr = strings.Fields(s[i+len("udp://"):])[0]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if addr == "" {
		cancel()
		<-done
		t.Fatalf("no wire address in output:\n%s", out.String())
	}

	// A remote deployment of the same build tunes in over the socket.
	g, err := repro.GeneratePreset("germany", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repro.Deploy(g, repro.WithMethod(repro.NR), repro.WithRemote(addr))
	if err != nil {
		t.Fatalf("remote deploy against airserve: %v", err)
	}
	sess, err := d.Session(ctx, repro.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		src := repro.NodeID((i*41 + 3) % g.NumNodes())
		dst := repro.NodeID((i*67 + 29) % g.NumNodes())
		if src == dst {
			continue
		}
		res, err := sess.Query(ctx, src, dst)
		if err != nil {
			t.Fatalf("remote query %d: %v", i, err)
		}
		if res.Metrics.TuningPackets <= 0 || res.Metrics.LatencyPackets <= 0 {
			t.Errorf("remote query %d metrics: %+v", i, res.Metrics)
		}
	}
	d.Close()

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve-only run: %v\n%s", err, out.String())
	}

	// -listen refuses the shapes the wire cannot serve yet.
	var buf bytes.Buffer
	if _, err := run(context.Background(), config{
		method: "NR", preset: "germany", scale: 0.02, clients: 2, queries: 4,
		channels: 2, listen: "127.0.0.1:0",
	}, &buf); err == nil {
		t.Error("-listen over -channels did not error")
	}
}

// TestSmokeUnknownMethod checks flag validation surfaces as an error.
func TestSmokeUnknownMethod(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(context.Background(), config{method: "XX", preset: "germany", scale: 0.02, clients: 1, queries: 1}, &out); err == nil {
		t.Fatal("unknown method did not error")
	}
}
