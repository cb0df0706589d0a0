package obs

// The per-query flight recorder: a fixed-capacity ring of span events a
// client handle records as its query crosses the broadcast path. Unlike
// the registry's aggregates, a trace answers "what did THIS query do" —
// where it tuned in, every packet it lost, every channel hop, every
// version-window re-entry — at a cost low enough to leave on for sampled
// queries (one nil check when disabled, one ring slot write when enabled,
// zero allocations after construction).
//
// All methods are nil-receiver safe: code under instrumentation calls
// t.Record(...) unconditionally, and a nil *Trace makes it a no-op — the
// disabled path is a single predictable branch.

// EventKind names one span event on the broadcast path. The schema is
// DESIGN.md §10's trace table; kinds are append-only (dashboards key on
// the numeric value).
type EventKind uint8

const (
	// EvTuneIn: the query attached to the air. Pos is the tune-in
	// position (logical packet position, or global tick on a sharded
	// feed); Arg is unused.
	EvTuneIn EventKind = iota
	// EvDirRead: a cold radio bootstrapped the channel directory from the
	// air. Pos is the tick it completed at; Arg is the packets spent.
	EvDirRead
	// EvHop: a sharded radio retuned to another channel. Pos is the
	// logical position it hopped for; Arg is the destination channel.
	EvHop
	// EvRetry: a packet the query listened for arrived corrupted (loss or
	// backpressure drop) — the trigger of every scheme retry loop. Pos is
	// the lost position; Arg is unused.
	EvRetry
	// EvReentry: the version window straddled a cycle swap and the query
	// re-entered. Pos is the position the re-entry started from; Arg is
	// the attempt number being discarded.
	EvReentry
)

// String names the kind for rendering.
func (k EventKind) String() string {
	switch k {
	case EvTuneIn:
		return "tune-in"
	case EvDirRead:
		return "dir-read"
	case EvHop:
		return "hop"
	case EvRetry:
		return "retry"
	case EvReentry:
		return "reentry"
	}
	return "unknown"
}

// Event is one recorded span event. Seq is the global record index since
// the trace was created (monotone; survives ring wrap, so a reader can
// tell how many early events were overwritten).
type Event struct {
	Seq  uint64    `json:"seq"`
	Kind EventKind `json:"kind"`
	Pos  int64     `json:"pos"`
	Arg  int64     `json:"arg"`
}

// Trace is a fixed-capacity ring of Events. It is single-writer (the
// query's own goroutine — the same discipline as the Tuner it instruments)
// and may be read after the query completes. The zero capacity trace (and
// the nil trace) record nothing.
type Trace struct {
	buf []Event
	n   uint64 // events recorded since creation
}

// NewTrace returns a recorder keeping the last capacity events.
func NewTrace(capacity int) *Trace {
	if capacity < 0 {
		capacity = 0
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest once the ring is full.
// Safe (a no-op) on a nil or zero-capacity trace; never allocates.
//
//air:noalloc
func (t *Trace) Record(kind EventKind, pos, arg int64) {
	if t == nil || len(t.buf) == 0 {
		return
	}
	t.buf[t.n%uint64(len(t.buf))] = Event{Seq: t.n, Kind: kind, Pos: pos, Arg: arg}
	t.n++
}

// Len returns how many events were recorded since creation (including any
// the ring has since overwritten).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// Events returns the retained events in record order (oldest first).
func (t *Trace) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	size := uint64(len(t.buf))
	kept := t.n
	if kept > size {
		kept = size
	}
	out := make([]Event, 0, kept)
	start := t.n - kept
	for i := start; i < t.n; i++ {
		out = append(out, t.buf[i%size])
	}
	return out
}

// Reset clears the trace for reuse (the backing ring is retained).
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.n = 0
}
