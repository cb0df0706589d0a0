package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro"
)

// procStart approximates process start: package variables initialize
// before main, a few milliseconds after exec.
var procStart = time.Now()

const (
	// setupReps is how many times a run sets its workload up; setup_s and
	// the build metrics are medians over the repetitions, so one slow build
	// on a shared machine moves nothing.
	setupReps = 3
	// minRounds is the least number of measured rounds, however short
	// -seconds is: one per set-up repetition's rig. The count metrics are
	// taken over exactly these rounds, which every run completes, so they do
	// not depend on how many more the machine fits into the window.
	minRounds = setupReps
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // network scale; 1.0 is the benchmark, tests shrink it
	root     string  // checkout root: scratch and trace output live under it
	// cacheDir holds the build cache's disk tier. One per process: enabling
	// the tier on another directory unmaps the cycles of every warm-loaded
	// server still alive.
	cacheDir string
	probes   bool // run the micro-probes after a traced window
	logf     func(string, ...any)
}

// runWorkload sets one workload up, measures it and returns its report.
func runWorkload(ctx context.Context, o options) (*report, error) {
	sp, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	atStart := readCounters()
	rep := newReport(o, sp)

	// Set-up, repeated; every repetition's rig stays up, because the rounds
	// below rotate over them. Each repetition generates the network anew;
	// the first also starts the process and generates the inputs (both
	// milliseconds), so setup_s — the median — is one full set-up, not the
	// time to the first round, which the document records beside it.
	var g *repro.Graph
	var in *inputs
	var err error
	var rigs []*rig
	defer func() {
		for _, r := range rigs {
			r.close()
		}
	}()
	var setupS, coldS, warmMs []float64
	key := ""
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the previous repetition's garbage is not this one's cost
		began := time.Now()
		if i == 0 {
			began = procStart
		}
		if g, err = loadNetwork(o.scale); err != nil {
			return nil, err
		}
		if i == 0 {
			in = makeInputs(o.seed, g, minRounds, sp.perRound)
		}
		key = fmt.Sprintf("bench/%s/seed%d/rep%d", sp.name, o.seed, i)
		r, bt, err := setUp(ctx, sp, g, in, key, o.cacheDir)
		if err != nil {
			return nil, err
		}
		rigs = append(rigs, r)
		setupS = append(setupS, time.Since(began).Seconds())
		coldS = append(coldS, bt.cold.Seconds())
		warmMs = append(warmMs, median(bt.warmMs))
	}
	rep.SetupRepsS = setupS

	// The rebuild of a workload that does not update: measured once, on a
	// deployment that never goes on the air.
	var rebuildS []float64
	if rigs[0].prepare == nil {
		d, err := rebuildOnce(sp, g, in, key)
		if err != nil {
			return nil, fmt.Errorf("%s: rebuild: %w", sp.name, err)
		}
		rebuildS = append(rebuildS, d.Seconds())
	}

	// The measured window: rounds of a fixed query count until -seconds have
	// passed. Round i poses block i of the query pool on rig i, both modulo
	// their count: a rig's memory layout shifts its timings by several
	// percent, so the median over rounds spans every repetition's rig.
	// Traced runs alternate untraced and traced rounds, so the tracing
	// overhead is measured inside one process.
	runtime.GC()
	verifiers := make([]verifier, len(rigs))
	var win window
	var spans spanStats
	var firstTraced *round
	winStart := readCounters()
	began := time.Now()
	rep.StartToFirstRoundS = began.Sub(procStart).Seconds()
	for i := 0; i < minRounds || time.Since(began).Seconds() < o.seconds; i++ {
		r, v := rigs[i%len(rigs)], &verifiers[i%len(rigs)]
		queries := plan(in.blocks[i%len(in.blocks)], sp.clients)
		var p prep
		if r.prepare != nil {
			if p, err = r.prepare(); err != nil {
				return nil, err
			}
			rebuildS = append(rebuildS, p.rebuild.Seconds())
		}
		v.use(r.graph())
		var rd *round
		if o.trace && i%2 == 1 {
			v.prime(in.blocks[i%len(in.blocks)])
			clients := make([]*tracedClient, sp.clients)
			for c := range clients {
				clients[c] = newTracedClient(r, in, c)
			}
			rd = runRound(queries, tracedAsk(ctx, r, clients, v))
			rd.Traced = true
		} else {
			sessions, err := r.open(ctx, in, sp.clients)
			if err != nil {
				return nil, err
			}
			rd = runRound(queries, untracedAsk(ctx, sessions))
		}
		rd.RebuildS, rd.SwapMs = p.rebuild.Seconds(), float64(p.swapToAir)/float64(time.Millisecond)
		rd.settle(v, o.logf)
		if rd.Traced {
			spans.add(rd)
		}
		if rd.Traced && firstTraced == nil {
			firstTraced = rd
		} else {
			rd.samples = nil
		}
		if i < minRounds {
			win.head.add(rd)
		}
		win.all.add(rd)
		rep.Rounds = append(rep.Rounds, rd)
		rep.Attempted += rd.Queries
		rep.Failed += rd.Failed
	}
	win.delta = readCounters().minus(winStart)
	if win.all.answered+rep.Failed != rep.Attempted {
		return nil, fmt.Errorf("%s: accounting broken: %d answered + %d failed != %d attempted",
			sp.name, win.all.answered, rep.Failed, rep.Attempted)
	}
	rep.Correct = rep.Failed == 0
	if rep.Attempted > 0 {
		rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	}

	if !o.trace {
		rep.endToEnd(setupS, coldS, warmMs, rebuildS, &win)
		return rep, nil
	}

	if firstTraced != nil {
		path, err := writeSpans(filepath.Join(o.root, "bench", "out"), sp.name, firstTraced)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.TraceFile = path
	}
	rep.perLayer(&win, &spans, readCounters().minus(atStart))
	if o.probes {
		if err := runProbes(ctx, o, rep.PerLayer); err != nil {
			return nil, fmt.Errorf("micro-probes: %w", err)
		}
	}
	return rep, nil
}
