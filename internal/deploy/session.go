package deploy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/broadcast"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/station"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// Session-level instruments (DESIGN.md §10, §12).
var (
	obsSessions = obs.GetCounter("air_deploy_sessions_total",
		"client sessions opened on deployments")
	obsSessionQueries = obs.GetCounter("air_deploy_queries_total",
		"queries answered through session handles")
	obsSessionInflight = obs.GetGauge("air_deploy_inflight_queries",
		"session queries currently in flight")
	obsDegraded = obs.GetCounter("air_deploy_degraded_total",
		"session queries aborted by a tuning or deadline budget (degraded answers)")
	obsRefused = obs.GetCounter("air_deploy_refused_total",
		"session queries refused by admission control (busy broadcaster or full station)")
)

// ErrBudgetExceeded classifies a query aborted by its session's answer
// budget — the tuning-packet cap or the wall-clock deadline. Detect it
// with errors.Is; the concrete error is a *BudgetError carrying which
// budget fired and what the query had spent.
var ErrBudgetExceeded = errors.New("repro: answer budget exceeded")

// BudgetError reports a degraded answer: the query was aborted because its
// budget ran out, not because anything failed. The paper's energy argument
// made explicit — a mobile client is allowed only so much radio-on time
// and so much waiting, and an operator must see how often the broadcast
// could not answer within it (air_deploy_degraded_total).
type BudgetError struct {
	// Reason is "tuning" (TuningBudget exhausted) or "deadline" (Deadline
	// passed).
	Reason string
	// TuningPackets is how many packets the radio had received across every
	// attempt when the budget fired.
	TuningPackets int
	// Elapsed is the query's wall-clock time at the abort (zero when no
	// deadline was armed).
	Elapsed time.Duration
	// Err is the underlying abort (broadcast.ErrTuningBudget or
	// context.DeadlineExceeded).
	Err error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("repro: %s budget exceeded after %d packets: %v", e.Reason, e.TuningPackets, e.Err)
}

func (e *BudgetError) Unwrap() error { return e.Err }

// Is matches ErrBudgetExceeded, so callers need no type assertion to
// classify degraded answers.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// SessionOptions tune one client handle.
type SessionOptions struct {
	// TuneIn is where an offline session enters the broadcast: the global
	// clock tick, which on a single channel is the absolute packet
	// position. Live sessions tune in at whatever the station is
	// transmitting when each query is posed, so TuneIn is ignored there.
	TuneIn int
	// Seed derives the session's private loss pattern on live
	// subscriptions (default: the deployment's WithLoss seed). Offline,
	// the air's pattern is the deployment's — every listener hears the
	// same channel, the paper's model.
	Seed int64
	// Channel is the channel a sharded session's radio starts on.
	Channel int
	// Cold makes a sharded session's radio bootstrap the channel
	// directory from the air (charged to tuning and latency) instead of
	// holding a cached copy.
	Cold bool
	// Trace, when set, attaches a flight recorder to the session: every
	// query records its span events (tune-in, hops, directory reads,
	// retries, re-entries) on it. Metrics are unchanged; a sampled session
	// with a trace and one without report identical Results.
	Trace *obs.Trace
	// Deadline bounds each Query's wall-clock time; past it the attempt
	// aborts and the query returns a *BudgetError (errors.Is
	// ErrBudgetExceeded) instead of hanging on a slow or dying air.
	// 0 = unlimited.
	Deadline time.Duration
	// TuningBudget caps the packets the radio may receive per query — the
	// paper's energy knob as an admission limit. The budget is a total
	// across swap re-entries (the radio already paid for those packets);
	// exhausting it returns a *BudgetError. 0 = unlimited.
	TuningBudget int
}

// Session is one client's handle on a deployment: a simulated mobile
// device that keeps its scheme client (and its position, offline) across
// queries. Query is the one query path for every deployment shape: the
// session attaches through the deployment's transport and owns everything
// above the feed — budgets, context binding, swap re-entry, fresh-feed
// retry, outcome classification — so it always returns the same Result and
// Metrics. A Session is not safe
// for concurrent use; open one per goroutine (Sessions of one Deployment
// share the air safely).
type Session struct {
	d      *Deployment
	opts   SessionOptions
	client scheme.Client
	cursor int // next offline tune-in: the global tick (the packet position at K=1)
	rng    *rand.Rand
	reent  int
	// loss and dial are what a live or remote attach is made with: the
	// deployment's WithLoss rate and the transport's own dial options, unless
	// a fleet run set its own.
	loss float64
	dial *transport.DialOptions
	// last is the air accounting of the most recent Query.
	last fleet.Air
}

// Session returns a client handle. On a live deployment that was not
// explicitly started, the first session (lazily) puts it on the air with
// ctx bounding the broadcast's lifetime.
func (d *Deployment) Session(ctx context.Context, opts SessionOptions) (*Session, error) {
	if err := d.Start(ctx); err != nil {
		return nil, err
	}
	if opts.Channel < 0 || opts.Channel >= d.channels {
		return nil, fmt.Errorf("repro: session start channel %d outside [0,%d)", opts.Channel, d.channels)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = d.lossSeed
	}
	obsSessions.Inc()
	return &Session{
		d:      d,
		opts:   opts,
		client: d.srv.NewClient(),
		cursor: opts.TuneIn,
		rng:    rand.New(rand.NewSource(seed)),
		loss:   d.loss,
	}, nil
}

// attach tunes a radio in through the deployment's transport, positions a
// tuner on the feed, and binds ctx so a cancelled context aborts even a
// lossy listen loop. Every attach draws one loss-pattern seed from the
// session's generator. The caller releases the attachment (see release).
func (s *Session) attach(ctx context.Context) (*broadcast.Tuner, transport.Attachment, error) {
	att, err := s.d.air.Attach(transport.Tune{
		Cursor: s.cursor, Loss: s.loss, Seed: s.rng.Int63(),
		Channel: s.opts.Channel, Cold: s.opts.Cold, Trace: s.opts.Trace, Dial: s.dial,
	})
	if err != nil {
		return nil, att, err
	}
	t := att.Tuner()
	t.SetTrace(s.opts.Trace) // nil-safe: detached recorder is one branch
	if ctx != nil {
		t.Bind(ctx)
	}
	return t, att, nil
}

// release gives the feed back, advances the offline cursor to where the
// query left the air, and folds what the air did to the feed into the
// query's accounting. It returns the attempt's tuning packets.
func (s *Session) release(t *broadcast.Tuner, att transport.Attachment) int {
	s.cursor = att.Release(t.Pos())
	a := &s.last
	a.Lost += t.Lost()
	a.Missed += att.Missed()
	a.Hops += att.Hops()
	if v, ok := t.Version(); ok {
		a.Version = v
	}
	if per := att.PerChannel(); a.PerChannel == nil {
		a.PerChannel = per
	} else {
		for c, n := range per {
			a.PerChannel[c] += n
		}
	}
	return t.Tuning()
}

// Air returns the air-level accounting of the session's most recent Query:
// how it ended, lost and missed packets, per-channel reception and hops,
// how many attempts swaps cost it, and the cycle version it answered on.
func (s *Session) Air() fleet.Air { return s.last }

// fleetSession is a Session behind the one method a fleet worker drives.
type fleetSession struct{ s *Session }

func (f fleetSession) Ask(ctx context.Context, q scheme.Query) (scheme.Result, fleet.Air) {
	res, _ := f.s.ask(ctx, q)
	return res, f.s.last
}

// Query answers one shortest-path query from src to dst on the air. It
// honors ctx even where the underlying listen loop would spin (a lossy
// channel mid-recovery), and on a dynamic deployment it transparently
// re-enters whenever the attempt straddled a cycle swap — on the same
// feed when the tuner's version window catches the swap, on a fresh one
// when the feed's cached structure went stale (including a wire receiver
// whose broadcaster restarted onto a different cycle). Tuning and latency
// in the returned metrics accumulate across re-entries: the true
// end-to-end cost.
//
// With a Deadline or TuningBudget armed (SessionOptions), a query that
// outruns its budget returns a *BudgetError — an explicitly degraded
// answer, counted in air_deploy_degraded_total, never a hang.
func (s *Session) Query(ctx context.Context, src, dst graph.NodeID) (scheme.Result, error) {
	return s.ask(ctx, scheme.QueryFor(s.d.g, src, dst))
}

func (s *Session) ask(ctx context.Context, q scheme.Query) (scheme.Result, error) {
	s.last = fleet.Air{}
	obsSessionQueries.Inc()
	obsSessionInflight.Inc()
	defer obsSessionInflight.Dec()
	var began time.Time
	if s.opts.Deadline > 0 || s.opts.TuningBudget > 0 {
		began = time.Now()
	}
	if s.opts.Deadline > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.Deadline)
		defer cancel()
	}
	const maxFreshFeeds = 4
	spent := 0 // tuning packets across every attempt: budgets are totals
	for attempt := 0; ; attempt++ {
		res, tuning, err := s.queryOnce(ctx, q, spent)
		spent += tuning
		if (errors.Is(err, update.ErrStaleFeed) || errors.Is(err, wire.ErrRestarted)) && attempt < maxFreshFeeds {
			s.opts.Trace.Record(obs.EvReentry, 0, int64(attempt+1))
			continue
		}
		s.reent += max(s.last.Attempts-1, 0)
		return res, s.classify(err, spent, began)
	}
}

// classify records how the query ended (Air().Outcome), converts budget
// aborts into *BudgetError (degraded answer) and counts admission refusals;
// every other error passes through untouched.
func (s *Session) classify(err error, spent int, began time.Time) error {
	switch {
	case err == nil:
		s.last.Outcome = fleet.Answered
	case errors.Is(err, broadcast.ErrTuningBudget):
		s.last.Outcome = fleet.Degraded
		obsDegraded.Inc()
		return &BudgetError{Reason: "tuning", TuningPackets: spent, Elapsed: sinceIf(began), Err: err}
	case s.opts.Deadline > 0 && errors.Is(err, context.DeadlineExceeded):
		s.last.Outcome = fleet.Degraded
		obsDegraded.Inc()
		return &BudgetError{Reason: "deadline", TuningPackets: spent, Elapsed: sinceIf(began), Err: err}
	case errors.Is(err, wire.ErrRefused), errors.Is(err, station.ErrFull):
		s.last.Outcome = fleet.Refused
		obsRefused.Inc()
	default:
		s.last.Outcome = fleet.Failed
	}
	return err
}

// sinceIf returns the elapsed time since a non-zero mark.
func sinceIf(began time.Time) time.Duration {
	if began.IsZero() {
		return 0
	}
	return time.Since(began)
}

// queryOnce runs the client once on a freshly attached feed, converting a
// context abort into an error and counting the attempts swaps cost. The
// feed is released (and the offline cursor advanced) on every exit path,
// panics included — a live subscription must not outlive its query attempt.
// The returned tuning is the attempt's packet count even on an abort, so
// the caller can charge budgets across attempts.
func (s *Session) queryOnce(ctx context.Context, q scheme.Query, spent int) (res scheme.Result, tuning int, err error) {
	if b := s.opts.TuningBudget; b > 0 && spent >= b {
		// A previous attempt burned the whole allowance; do not attach a
		// fresh feed just to abort on its first listen.
		return res, 0, fmt.Errorf("%w after %d packets", broadcast.ErrTuningBudget, spent)
	}
	t, att, err := s.attach(ctx)
	if err != nil {
		return res, 0, err
	}
	// Runs after RecoverCancel (LIFO), so an aborted attempt still reports
	// what it listened to.
	defer func() { tuning = s.release(t, att) }()
	defer broadcast.RecoverCancel(&err)
	if b := s.opts.TuningBudget; b > 0 {
		t.SetBudget(b - spent)
	}
	if s.d.mgr != nil {
		var attempts int
		res, attempts, err = update.Query(s.client, t, q)
		s.last.Attempts += attempts
		return res, 0, err
	}
	s.last.Attempts++
	res, err = s.client.Query(t, q)
	return res, 0, err
}

// Reentries returns how many query attempts this session has discarded to
// cycle swaps (always zero on a static deployment): the per-session view
// of the churn accounting RunFleet aggregates.
func (s *Session) Reentries() int { return s.reent }
