package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// scrape fetches url and returns the body as a string.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// parseProm parses a Prometheus text exposition into series -> value, keyed
// by the full series name including labels ("air_channel_packets_total{channel=\"0\"}").
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestAdminEndToEnd puts a live deployment on the air, binds the admin
// listener, drives a small fleet, and asserts over HTTP that the broadcast,
// drop-accounting, cache, and latency-histogram series all moved.
func TestAdminEndToEnd(t *testing.T) {
	g, err := repro.GeneratePreset("germany", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repro.Deploy(g,
		repro.WithMethod(repro.NR),
		repro.WithLive(repro.StationConfig{}),
		repro.WithLoss(0.05, 7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	admin, err := startAdmin("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Shutdown(2 * time.Second)
	base := "http://" + admin.Addr()

	if body := scrape(t, base+"/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}

	before := parseProm(t, scrape(t, base+"/metrics"))

	rep, err := d.RunFleet(context.Background(), repro.FleetOptions{
		Clients: 8, Queries: 32, Loss: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("fleet errors: %d", rep.Errors)
	}

	// One session query moves the session-path counters, and a second
	// identical Deploy hits the shared server cache.
	sess, err := d.Session(context.Background(), repro.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(context.Background(), 0, 1); err != nil {
		t.Fatalf("session query: %v", err)
	}
	for i := 0; i < 2; i++ { // first Get misses and builds, second hits
		d2, err := repro.Deploy(g, repro.WithMethod(repro.NR), repro.WithCache("admin-e2e"))
		if err != nil {
			t.Fatal(err)
		}
		d2.Close()
	}

	after := parseProm(t, scrape(t, base+"/metrics"))
	moved := func(series string) {
		t.Helper()
		if after[series] <= before[series] {
			t.Errorf("series %s did not move: before %v after %v", series, before[series], after[series])
		}
	}
	moved("air_station_packets_total")
	moved("air_fleet_queries_total")
	moved("air_fleet_lost_packets_total") // 5% loss over 32 queries corrupts receptions
	moved("air_servercache_hits_total")
	moved("air_fleet_query_seconds_count")
	moved("air_deploy_sessions_total")
	if _, ok := after[`air_fleet_query_seconds_bucket{le="+Inf"}`]; !ok {
		t.Errorf("query-latency histogram missing +Inf bucket in exposition")
	}

	// /statusz reflects the live deployment.
	var status struct {
		Deployment repro.DeployStatus  `json:"deployment"`
		Metrics    []repro.MetricPoint `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(scrape(t, base+"/statusz")), &status); err != nil {
		t.Fatalf("/statusz: %v", err)
	}
	if status.Deployment.Method != "NR" || !status.Deployment.Live || status.Deployment.CycleLen <= 0 {
		t.Errorf("/statusz deployment = %+v", status.Deployment)
	}
	if len(status.Metrics) == 0 {
		t.Error("/statusz carries no metric points")
	}

	// pprof is wired (index + a fast endpoint; /profile takes 30s so skip it).
	if body := scrape(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index does not list profiles:\n%.200s", body)
	}
	scrape(t, base+"/debug/pprof/cmdline")
}

// TestAdminShutdownNoLeak checks the admin listener drains cleanly: after
// Shutdown the goroutine count returns to its pre-listener level and the
// port is released.
func TestAdminShutdownNoLeak(t *testing.T) {
	g, err := repro.GeneratePreset("germany", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repro.Deploy(g, repro.WithMethod(repro.NR), repro.WithLive(repro.StationConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	beforeG := runtime.NumGoroutine()
	admin, err := startAdmin("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	scrape(t, "http://"+admin.Addr()+"/healthz")
	if err := admin.Shutdown(2 * time.Second); err != nil {
		t.Errorf("clean shutdown returned %v", err)
	}

	if _, err := http.Get("http://" + admin.Addr() + "/healthz"); err == nil {
		t.Error("admin listener still accepting after Shutdown")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > beforeG+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > beforeG+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d before, %d after shutdown\n%s",
			beforeG, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestSoak runs a churning fleet against a live virtual-clock station while
// a background scraper hits /metrics, and fails on goroutine leaks or
// stalled counters. Locally it runs ~2 s; CI sets SOAK_SECONDS=60 for the full
// soak. Skipped under -short.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	soak := 2 * time.Second
	if s := os.Getenv("SOAK_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SOAK_SECONDS=%q: %v", s, err)
		}
		soak = time.Duration(secs) * time.Second
	}

	g, err := repro.GeneratePreset("germany", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	batches := int(soak/(20*time.Millisecond)) + 1
	d, err := repro.Deploy(g,
		repro.WithMethod(repro.NR),
		repro.WithLive(repro.StationConfig{}),
		repro.WithLoss(0.03, 7),
		repro.WithUpdates(repro.UpdateConfig{Batches: batches, Interval: 20 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}

	beforeG := runtime.NumGoroutine()
	admin, err := startAdmin("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + admin.Addr()

	// Background scraper: /metrics every 100 ms for the whole soak. The
	// station packet counter must keep climbing while the fleet runs — a
	// stall means the broadcast loop wedged.
	scrapeCtx, stopScraper := context.WithCancel(context.Background())
	scraperDone := make(chan struct{})
	var scrapes, stalls atomic.Int64
	go func() {
		defer close(scraperDone)
		var lastPackets float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-scrapeCtx.Done():
				return
			case <-tick.C:
			}
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				continue // listener may be mid-shutdown
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			m := map[string]float64{}
			for _, line := range strings.Split(string(body), "\n") {
				if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
					if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
						m[line[:i]] = v
					}
				}
			}
			p := m["air_station_packets_total"]
			if p <= lastPackets {
				stalls.Add(1)
			} else {
				stalls.Store(0)
			}
			lastPackets = p
			scrapes.Add(1)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := d.RunFleet(ctx, repro.FleetOptions{
		Clients:  16,
		Queries:  1 << 30, // duration-bounded
		Duration: soak,
		Loss:     0.03,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("soak fleet: %v", err)
	}
	if stalled := stalls.Load(); stalled > 5 {
		t.Errorf("station packet counter stalled for %d consecutive scrapes during soak", stalled)
	}

	stopScraper()
	<-scraperDone
	admin.Shutdown(2 * time.Second)
	d.Close()

	if rep.Queries == 0 || rep.Errors > 0 {
		t.Errorf("soak fleet: %d queries, %d errors", rep.Queries, rep.Errors)
	}
	// The report derives simulator loss as lost - missed, which is only
	// sound because Missed counts the listened-for subset of drops.
	if rep.MissedPackets > rep.LostPackets {
		t.Errorf("missed %d > lost %d: backpressure accounting is not a subset of tuner loss",
			rep.MissedPackets, rep.LostPackets)
	}
	if n := scrapes.Load(); n == 0 {
		t.Error("background scraper never completed a scrape")
	}
	t.Logf("soak: %v, %d queries (%.0f qps), %d stale, %d lost / %d missed, %d scrapes",
		soak, rep.Queries, rep.QPS, func() int {
			if rep.Churn != nil {
				return rep.Churn.StaleQueries
			}
			return 0
		}(), rep.LostPackets, rep.MissedPackets, scrapes.Load())

	// Everything is closed: the goroutine count must return to where it was
	// before the listener and the broadcast went up.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > beforeG+3 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > beforeG+3 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked after soak: %d before, %d after\n%s",
			beforeG, n, buf[:runtime.Stack(buf, true)])
	}
}
