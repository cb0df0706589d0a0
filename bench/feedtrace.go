package main

import (
	"time"

	"repro/internal/broadcast"
	"repro/internal/multichannel"
	"repro/internal/packet"
	"repro/internal/station"
	"repro/internal/wire"
)

// The traced run times the feed from outside: each concrete feed gets one
// decorator that forwards exactly the optional broadcast interfaces that
// feed implements — no more, or NewFeedTuner would switch the tuner into an
// accounting mode (Clocked latency, Hopping overhead) the bare feed does not
// have, and the traced run would measure a different program; no fewer, or
// it would lose the prefetch batching and staleness checks. The set is
// pinned per feed in feedtrace_test.go.

// feedTimer accumulates the time one query spends inside Feed.At, the only
// feed call that can block on the air.
type feedTimer struct {
	busy  time.Duration
	calls int
	first time.Time // start of the first At
	last  time.Time // end of the last At
}

func (ft *feedTimer) timeAt(at func(int) (packet.Packet, bool), abs int) (packet.Packet, bool) {
	began := time.Now()
	p, ok := at(abs)
	ft.last = time.Now()
	if ft.calls == 0 {
		ft.first = began
	}
	ft.calls++
	ft.busy += ft.last.Sub(began)
	return p, ok
}

// timedChannel decorates the offline channel: a plain Feed.
type timedChannel struct {
	feedTimer
	ch *broadcast.Channel
}

func (f *timedChannel) Len() int                         { return f.ch.Len() }
func (f *timedChannel) At(abs int) (packet.Packet, bool) { return f.timeAt(f.ch.At, abs) }

// timedSub decorates a live single-channel subscription: Feed + Prefetcher.
type timedSub struct {
	feedTimer
	sub *station.Sub
}

func (f *timedSub) Len() int                         { return f.sub.Len() }
func (f *timedSub) At(abs int) (packet.Packet, bool) { return f.timeAt(f.sub.At, abs) }
func (f *timedSub) Prefetch(abs, n int)              { f.sub.Prefetch(abs, n) }

// timedRx decorates a channel-hopping radio: Feed + Clocked + Hopping +
// Refreshable + Prefetcher.
type timedRx struct {
	feedTimer
	rx *multichannel.Rx
}

func (f *timedRx) Len() int                         { return f.rx.Len() }
func (f *timedRx) At(abs int) (packet.Packet, bool) { return f.timeAt(f.rx.At, abs) }
func (f *timedRx) Clock() int                       { return f.rx.Clock() }
func (f *timedRx) TuneIn() int                      { return f.rx.TuneIn() }
func (f *timedRx) WaitFor(abs int) int              { return f.rx.WaitFor(abs) }
func (f *timedRx) Overhead() int                    { return f.rx.Overhead() }
func (f *timedRx) Stale() bool                      { return f.rx.Stale() }
func (f *timedRx) Prefetch(abs, n int)              { f.rx.Prefetch(abs, n) }

// timedReceiver decorates a wire subscription: Feed + Clocked + Refreshable
// + Prefetcher.
type timedReceiver struct {
	feedTimer
	rx *wire.Receiver
}

func (f *timedReceiver) Len() int                         { return f.rx.Len() }
func (f *timedReceiver) At(abs int) (packet.Packet, bool) { return f.timeAt(f.rx.At, abs) }
func (f *timedReceiver) Clock() int                       { return f.rx.Clock() }
func (f *timedReceiver) TuneIn() int                      { return f.rx.TuneIn() }
func (f *timedReceiver) Stale() bool                      { return f.rx.Stale() }
func (f *timedReceiver) Prefetch(abs, n int)              { f.rx.Prefetch(abs, n) }
