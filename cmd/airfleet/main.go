// Command airfleet load-tests a remote broadcast over UDP. Where airserve
// owns the station (and with -listen puts it on a wire), airfleet is the
// other end: a fleet of clients in this process — or sharded across N OS
// processes — each tuning in to the broadcaster with a real datagram
// subscription per query.
//
// Usage:
//
//	airserve -method NR -listen :9040 -clients 0 &   # the station
//	airfleet -connect localhost:9040 -method NR      # one worker process
//	airfleet -connect localhost:9040 -workers 4      # controller + 4 workers
//
// The worker builds the same graph and scheme locally (the -preset, -scale,
// -seed and -method flags must match the broadcaster's build; the dial-time
// probe refuses a mismatch) so it can verify every answer against a local
// reference distance. With -workers N the controller re-executes itself N
// times, gives each worker a distinct fleet seed, and folds the N JSON
// results with the exact-where-possible merge (see repro.MergeFleetResults).
//
// -clients and -queries are per worker: -workers 4 -queries 200 answers 800.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro"
)

type config struct {
	connect string // broadcaster address (host:port, UDP) — required
	workers int    // OS worker processes; <= 1 runs the fleet in-process
	jsonOut bool   // emit the raw fleet result as JSON (the worker wire format)

	// The local build, which must match the broadcaster's.
	method  string
	preset  string
	scale   float64
	seed    int64
	regions int

	// The per-worker fleet shape.
	clients    int
	queries    int
	pool       int
	loss       float64
	workerSeed int64 // fleet seed (workload + loss patterns); 0 = -seed

	// Resilience knobs: a per-query wall-clock deadline and tuning-packet
	// budget (degraded answers are reported, never hung), and how many
	// redials each wire subscription may spend surviving a broadcaster
	// restart.
	deadline time.Duration
	budget   int
	redial   int
}

// worker runs one fleet in-process against the broadcaster: the same
// deployment shape a library user gets from repro.WithRemote.
func worker(ctx context.Context, cfg config, out io.Writer) (repro.FleetResult, error) {
	var zero repro.FleetResult
	g, err := repro.GeneratePreset(cfg.preset, cfg.scale, cfg.seed)
	if err != nil {
		return zero, err
	}
	fmt.Fprintf(out, "network  %s x%.2g: %d nodes, %d arcs\n", cfg.preset, cfg.scale, g.NumNodes(), g.NumArcs())
	d, err := repro.Deploy(g,
		repro.WithMethod(repro.Method(cfg.method)),
		repro.WithParams(repro.Params{Regions: cfg.regions}),
		repro.WithRemote(cfg.connect),
	)
	if err != nil {
		return zero, err
	}
	defer d.Close()
	fmt.Fprintf(out, "wire     udp://%s: %s cycle, %d packets at %.3g Mbps\n",
		cfg.connect, d.Server().Name(), d.Len(), float64(d.Rate())/1e6)

	seed := cfg.workerSeed
	if seed == 0 {
		seed = cfg.seed
	}
	rep, err := d.RunFleet(ctx, repro.FleetOptions{
		Clients:       cfg.clients,
		Queries:       cfg.queries,
		PoolSize:      cfg.pool,
		Loss:          cfg.loss,
		Seed:          seed,
		QueryDeadline: cfg.deadline,
		TuningBudget:  cfg.budget,
		Wire:          repro.WireReceiverOptions{Redial: cfg.redial},
	})
	return rep.Result, err
}

// controller re-executes this binary N times in worker mode and merges the
// JSON results. Each worker gets a distinct fleet seed (the build seed stays
// shared — every process must hold the broadcaster's graph) so the fleets
// draw independent workloads and loss patterns.
func controller(ctx context.Context, cfg config, out io.Writer) (repro.FleetResult, error) {
	var zero repro.FleetResult
	exe, err := os.Executable()
	if err != nil {
		return zero, err
	}
	fmt.Fprintf(out, "fanout   %d worker processes x %d clients, %d queries each\n",
		cfg.workers, cfg.clients, cfg.queries)

	parts := make([]repro.FleetResult, cfg.workers)
	errs := make([]error, cfg.workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			args := []string{
				"-connect", cfg.connect, "-json",
				"-method", cfg.method,
				"-preset", cfg.preset,
				"-scale", fmt.Sprint(cfg.scale),
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-worker-seed", strconv.FormatInt(cfg.seed+int64(i+1)*1_000_003, 10),
				"-regions", strconv.Itoa(cfg.regions),
				"-clients", strconv.Itoa(cfg.clients),
				"-queries", strconv.Itoa(cfg.queries),
				"-pool", strconv.Itoa(cfg.pool),
				"-loss", fmt.Sprint(cfg.loss),
				"-deadline", cfg.deadline.String(),
				"-tuning-budget", strconv.Itoa(cfg.budget),
				"-redial", strconv.Itoa(cfg.redial),
			}
			cmd := exec.CommandContext(ctx, exe, args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				errs[i] = fmt.Errorf("worker %d: %w\n%s", i, err, stderr.Bytes())
				return
			}
			if err := json.Unmarshal(stdout.Bytes(), &parts[i]); err != nil {
				errs[i] = fmt.Errorf("worker %d output: %w\n%s", i, err, stdout.Bytes())
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return zero, err
		}
	}
	return repro.MergeFleetResults(parts)
}

// report renders the merged (or single-worker) load-test summary.
func report(w io.Writer, r repro.FleetResult) {
	fmt.Fprintf(w, "\nfleet    %d clients, %d queries in %v", r.Clients, r.Queries, r.Elapsed.Round(time.Millisecond))
	if r.Errors > 0 {
		fmt.Fprintf(w, " (%d errors)", r.Errors)
	}
	r.WriteTable(w, "lost receptions (%d injected, %d dropped or corrupted on the wire)")
}

// run dispatches to the controller or the in-process worker and renders
// the result; split from main so the tests can call it.
func run(ctx context.Context, cfg config, out io.Writer) (repro.FleetResult, error) {
	var zero repro.FleetResult
	if cfg.connect == "" {
		return zero, fmt.Errorf("-connect is required (the broadcaster's UDP address)")
	}
	if cfg.jsonOut {
		// JSON mode keeps stdout pure (the worker wire format): the
		// progress banner goes to stderr.
		res, err := worker(ctx, cfg, os.Stderr)
		if err != nil {
			return zero, err
		}
		return res, json.NewEncoder(out).Encode(res)
	}
	var res repro.FleetResult
	var err error
	if cfg.workers > 1 {
		res, err = controller(ctx, cfg, out)
	} else {
		res, err = worker(ctx, cfg, out)
	}
	if err != nil {
		return zero, err
	}
	report(out, res)
	return res, nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.connect, "connect", "", "broadcaster UDP address (e.g. localhost:9040); required")
	flag.IntVar(&cfg.workers, "workers", 1, "worker OS processes to fan the fleet across (1 = in-process)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the raw fleet result as JSON (the worker wire format)")
	flag.StringVar(&cfg.method, "method", "NR", "air-index method; must match the broadcaster's build")
	flag.StringVar(&cfg.preset, "preset", "germany", "network preset; must match the broadcaster's build")
	flag.Float64Var(&cfg.scale, "scale", 0.05, "network scale factor; must match the broadcaster's build")
	flag.Int64Var(&cfg.seed, "seed", 2010, "build seed (network); must match the broadcaster's build")
	flag.IntVar(&cfg.regions, "regions", 0, "EB/NR/AF partition count; must match the broadcaster's build")
	flag.IntVar(&cfg.clients, "clients", 100, "concurrent clients per worker")
	flag.IntVar(&cfg.queries, "queries", 2000, "queries per worker")
	flag.IntVar(&cfg.pool, "pool", 0, "distinct workload queries per worker (0 = cap at the paper's 400)")
	flag.Float64Var(&cfg.loss, "loss", 0, "injected per-client packet loss rate in [0,1), on top of real wire loss")
	flag.Int64Var(&cfg.workerSeed, "worker-seed", 0, "fleet seed (workload, loss patterns); 0 = -seed; set per worker by the controller")
	flag.DurationVar(&cfg.deadline, "deadline", 0, "per-query wall-clock budget (e.g. 2s); exceeded queries are reported degraded, never hung (0 = unlimited)")
	flag.IntVar(&cfg.budget, "tuning-budget", 0, "per-query tuning budget in packets (the paper's energy knob); 0 = unlimited")
	flag.IntVar(&cfg.redial, "redial", 0, "wire reconnection attempts per query after broadcaster silence or restart (0 = fail fast)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if _, err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "airfleet: %v\n", err)
		os.Exit(1)
	}
}
