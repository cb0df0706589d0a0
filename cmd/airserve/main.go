// Command airserve runs a live broadcast station and load-tests it with a
// fleet of concurrent clients.
//
// Usage:
//
//	airserve -method NR -preset germany -scale 0.05 -clients 500
//	airserve -method EB -clients 1000 -queries 5000 -loss 0.01
//	airserve -method DJ -duration 5s -rate 2000000   # paced to 2 Mbps
//	airserve -method NR -channels 4 -loss 0.1        # sharded broadcast
//	airserve -method NR -updates 5 -update-every 20ms  # dynamic network
//
// One Deployment composes every shape — single station, K sharded
// channels on a shared clock, or a churning versioned broadcast — and one
// RunFleet drives it: each client tunes in at the live position, answers
// shortest-path queries on the air, and tunes out. The report shows
// aggregate throughput (queries/sec) and mean plus p50/p95/p99 tuning
// time, access latency, and per-query energy.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
)

type config struct {
	method   string
	preset   string
	scale    float64
	clients  int
	queries  int
	pool     int
	duration time.Duration
	loss     float64
	seed     int64
	rate     int // bits per second; 0 = virtual clock (as fast as possible)
	regions  int
	channels int // parallel broadcast channels; <= 1 = single-channel station

	// Dynamic-network churn: apply `updates` weight-update batches during
	// the run, one every `updateEvery`, swapping the station to each new
	// cycle version. 0 = static broadcast (the default).
	updates     int
	updateEvery time.Duration

	// admin binds the HTTP admin listener (/metrics, /statusz, /healthz,
	// /debug/pprof/*) on the given address; "" disables it. listen puts
	// the broadcast itself on a UDP socket (internal/wire) so remote
	// sessions (repro.WithRemote, airfleet -connect) can tune in; ""
	// keeps it in-process. linger keeps the station on the air (and both
	// listeners serving) after the fleet completes, until SIGINT/SIGTERM.
	admin  string
	listen string
	linger bool

	// Admission control: cap the station's concurrent subscriptions and
	// the wire's remote receivers; past the cap, clients are shed with a
	// typed refusal (station ErrFull, wire busy frame) instead of degrading
	// every admitted listener. 0 = unlimited.
	maxSubscribers int
	maxRemotes     int

	// Warm restarts: cacheDir roots a persistent disk tier under the build
	// cache (servercache) so a restart with the same network/method/params
	// mmaps the previous run's cycle and border precomputation instead of
	// rebuilding; cacheBytes budgets it (0 = unbounded). "" disables.
	cacheDir   string
	cacheBytes int64
}

// run builds the deployment for the requested shape, puts it on the air,
// and drives the fleet. Split from main so the smoke and soak tests can
// call it; ctx cancellation (SIGINT/SIGTERM in main) stops the fleet, the
// station and the -linger wait alike.
func run(ctx context.Context, cfg config, out io.Writer) (repro.RunReport, error) {
	var zero repro.RunReport
	g, err := repro.GeneratePreset(cfg.preset, cfg.scale, cfg.seed)
	if err != nil {
		return zero, err
	}
	fmt.Fprintf(out, "network  %s x%.2g: %d nodes, %d arcs\n", cfg.preset, cfg.scale, g.NumNodes(), g.NumArcs())

	opts := []repro.DeployOption{
		repro.WithMethod(repro.Method(cfg.method)),
		repro.WithParams(repro.Params{Regions: cfg.regions}),
		repro.WithLive(repro.StationConfig{BitsPerSecond: cfg.rate, MaxSubscribers: cfg.maxSubscribers}),
		repro.WithLoss(cfg.loss, cfg.seed),
	}
	if cfg.channels > 1 {
		opts = append(opts, repro.WithChannels(cfg.channels))
	}
	if cfg.cacheDir != "" {
		network := fmt.Sprintf("%s/%g/%d", cfg.preset, cfg.scale, cfg.seed)
		opts = append(opts,
			repro.WithCache(network),
			repro.WithDiskCache(cfg.cacheDir, cfg.cacheBytes))
		fmt.Fprintf(out, "cache    %s (key %s, budget %s)\n", cfg.cacheDir, network, byteBudget(cfg.cacheBytes))
	}
	if cfg.updates > 0 {
		opts = append(opts, repro.WithUpdates(repro.UpdateConfig{
			Batches:  cfg.updates,
			Interval: cfg.updateEvery,
		}))
	}
	d, err := repro.Deploy(g, opts...)
	if err != nil {
		return zero, err
	}
	defer d.Close()

	if cfg.admin != "" {
		admin, err := startAdmin(cfg.admin, d)
		if err != nil {
			return zero, err
		}
		defer func() {
			if err := admin.Shutdown(5 * time.Second); err != nil {
				log.Printf("airserve: admin drain: %v", err)
			}
		}()
		fmt.Fprintf(out, "admin    http://%s  (/metrics /statusz /healthz /debug/pprof/)\n", admin.Addr())
	}

	if cfg.listen != "" {
		b, err := d.ServeWire(ctx, cfg.listen, repro.WireBroadcasterOptions{MaxRemotes: cfg.maxRemotes})
		if err != nil {
			return zero, err
		}
		defer b.Close()
		fmt.Fprintf(out, "wire     udp://%s  (remote sessions: repro.WithRemote, airfleet -connect)\n", b.Addr())
	}

	clock := "virtual clock (max speed)"
	if cfg.rate > 0 {
		clock = fmt.Sprintf("paced to %.3g Mbps", float64(cfg.rate)/1e6)
	}
	fmt.Fprintf(out, "station  %s cycle, %d packets", d.Server().Name(), d.Len())
	if cfg.channels > 1 {
		fmt.Fprintf(out, " over %d channels", d.Channels())
	}
	fmt.Fprintf(out, ", %s", clock)
	if cfg.updates > 0 {
		fmt.Fprintf(out, ", %d update batches every %v", cfg.updates, cfg.updateEvery)
	}
	fmt.Fprintln(out)

	if cfg.listen != "" && cfg.clients == 0 {
		// Serve-only: no local fleet, the station stays on the air for
		// remote tuners until the signal arrives.
		fmt.Fprintln(out, "\nserve    no local fleet (-clients 0); Ctrl-C (SIGINT/SIGTERM) to shut down")
		<-ctx.Done()
		return zero, nil
	}

	rep, err := d.RunFleet(ctx, repro.FleetOptions{
		Clients:  cfg.clients,
		Queries:  cfg.queries,
		PoolSize: cfg.pool,
		Duration: cfg.duration,
		Loss:     cfg.loss,
		Seed:     cfg.seed,
	})
	if err != nil {
		return zero, err
	}
	report(out, rep.Result)
	if churn := rep.Churn; churn != nil {
		fmt.Fprintf(out, "\nchurn    %d versions on the air (%d swaps); %d stale queries (%d re-entries)\n",
			churn.Versions, churn.Swaps, churn.StaleQueries, churn.Reentries)
		if churn.UpdateErr != nil {
			fmt.Fprintf(out, "warning  updater stopped early: %v\n", churn.UpdateErr)
		}
		if churn.StaleQueries > 0 && churn.MeanCleanLatency > 0 && churn.MeanStaleLatency > 0 {
			fmt.Fprintf(out, "latency  clean p50 %.0f pkts, stale p50 %.0f pkts (staleness penalty %+.0f%%)\n",
				churn.CleanLatency.P50, churn.StaleLatency.P50, 100*(churn.MeanStaleLatency/churn.MeanCleanLatency-1))
		}
	}
	if cfg.linger {
		fmt.Fprintln(out, "\nlinger   station staying on the air; Ctrl-C (SIGINT/SIGTERM) to shut down")
		<-ctx.Done()
	}
	return rep, nil
}

// byteBudget renders a -cache-bytes budget for the startup banner.
func byteBudget(n int64) string {
	if n <= 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d bytes", n)
}

// report renders the load-test summary.
func report(w io.Writer, r repro.FleetResult) {
	fmt.Fprintf(w, "\nfleet    %d clients, %d queries in %v", r.Clients, r.Queries, r.Elapsed.Round(time.Millisecond))
	if r.Pool > 0 && r.Pool < r.Queries {
		fmt.Fprintf(w, " (%d distinct)", r.Pool)
	}
	if r.Errors > 0 {
		fmt.Fprintf(w, " (%d errors)", r.Errors)
	}
	r.WriteTable(w, "corrupted receptions (%d simulator loss, %d backpressure drops)")
}

func main() {
	var cfg config
	flag.StringVar(&cfg.method, "method", "NR", "air-index method: DJ|NR|EB|LD|AF|SPQ|HiTi")
	flag.StringVar(&cfg.preset, "preset", "germany", "network preset (milan|germany|argentina|india|sanfrancisco|continent)")
	flag.Float64Var(&cfg.scale, "scale", 0.05, "network scale factor (1.0 = paper-sized)")
	flag.IntVar(&cfg.clients, "clients", 100, "concurrent clients in the fleet (0 with -listen = serve-only, no local fleet)")
	flag.IntVar(&cfg.queries, "queries", 2000, "total queries across the fleet")
	flag.IntVar(&cfg.pool, "pool", 0, "distinct workload queries (0 = cap at the paper's 400)")
	flag.DurationVar(&cfg.duration, "duration", 0, "optional wall-clock limit (e.g. 10s); 0 = run all queries")
	flag.Float64Var(&cfg.loss, "loss", 0, "per-client packet loss rate in [0,1)")
	flag.Int64Var(&cfg.seed, "seed", 2010, "random seed (network, workload, loss patterns)")
	flag.IntVar(&cfg.rate, "rate", 0, "station bit rate in bits/sec (e.g. 2000000); 0 = virtual clock")
	flag.IntVar(&cfg.regions, "regions", 0, "EB/NR/AF partition count (0 = paper default)")
	flag.IntVar(&cfg.channels, "channels", 1, "parallel broadcast channels (cycle sharded by region; clients hop)")
	flag.IntVar(&cfg.updates, "updates", 0, "weight-update batches applied during the run (0 = static broadcast)")
	flag.DurationVar(&cfg.updateEvery, "update-every", 50*time.Millisecond, "pause between update batches (with -updates)")
	flag.StringVar(&cfg.admin, "admin", "", "HTTP admin listener address (/metrics /statusz /healthz /debug/pprof/); empty = disabled")
	flag.StringVar(&cfg.listen, "listen", "", "UDP wire listener address (e.g. :7777) for remote sessions; empty = in-process only")
	flag.BoolVar(&cfg.linger, "linger", false, "stay on the air after the fleet completes, until SIGINT/SIGTERM")
	flag.IntVar(&cfg.maxSubscribers, "max-subscribers", 0, "station subscription cap; extra clients are refused, not degraded (0 = unlimited)")
	flag.IntVar(&cfg.maxRemotes, "max-remotes", 0, "wire remote-receiver cap (-listen); extra dials get a typed busy refusal (0 = unlimited)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "persistent build-cache directory: warm restarts mmap the previous run's cycle instead of rebuilding; empty = disabled")
	flag.Int64Var(&cfg.cacheBytes, "cache-bytes", 0, "disk cache byte budget with -cache-dir; least-recently-used entries evict past it (0 = unbounded)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// The first signal cancels ctx and starts the graceful drain
		// (fleet stop, station close, admin grace period). Unregistering
		// the handler here restores the default disposition, so a second
		// SIGINT/SIGTERM force-exits instead of hanging on the drain.
		<-ctx.Done()
		stop()
	}()

	if _, err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "airserve: %v\n", err)
		os.Exit(1)
	}
}
