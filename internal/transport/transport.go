// Package transport is the one seam between a client and the air. In the
// paper's model (§3.1) a client does the same thing whatever the channel
// looks like — tune in, listen, compute locally — so everything above this
// package (deploy.Session, and through it the fleet, the harness and the
// conformance suite) attaches through one interface, and everything that
// differs per deployment shape lives in one implementation each:
//
//	Offline      broadcast.Channel       the paper's replayed single channel
//	OfflineAir   multichannel.Air        the replayed K-channel air
//	Live         station.Station         a live station subscription
//	LiveGroup    multichannel.Station    a hopping radio on a live station group
//	wire.Remote  wire.Receiver           a UDP subscription to another process
//
// (The remote transport lives in internal/wire, which imports this package
// for the Attachment type: wire's in-package tests use conformance, which
// attaches through here, so this package cannot import wire back.)
//
// A transport hands out feeds; the broadcast.Tuner over the feed still does
// all tuning and latency accounting, which is what keeps every shape
// bit-identical at equal tune-in position, loss rate and seed.
package transport

import (
	"context"
	"errors"
	"time"

	"repro/internal/broadcast"
	"repro/internal/multichannel"
	"repro/internal/obs"
	"repro/internal/station"
)

// Transport is one deployment shape's air.
type Transport interface {
	// Attach tunes one radio in per t and returns its feed.
	Attach(t Tune) (Attachment, error)
	// Len is the logical cycle length in packets.
	Len() int
	// Rate is the bit rate queries are costed at; zero on an offline air,
	// which has no clock.
	Rate() int
	// Version is the cycle version on the air.
	Version() uint32
	// Subscribers counts the radios currently attached to a live air (zero
	// where nothing is held between queries).
	Subscribers() int
	// Start puts a live air on the air, bounded by ctx; starting one that is
	// already on the air, or one that needs no start, is a no-op.
	Start(ctx context.Context) error
	// Stop takes a live air off the air; a stopped air may be Started again.
	Stop()
}

// Tune says where and how one radio enters the air. Each transport reads the
// fields its shape has a use for.
type Tune struct {
	// Cursor is the offline tune-in: the absolute packet position on a
	// single channel, the global clock tick on a sharded one. A live air is
	// entered at whatever it is transmitting.
	Cursor int
	// Loss and Seed are a live subscription's private loss pattern (over the
	// wire: loss injected receiver-side). An offline air has its own pattern,
	// the same for every listener.
	Loss float64
	Seed int64
	// Channel is the channel a hopping radio starts on, and Cold makes it
	// bootstrap the channel directory from the air instead of holding a
	// cached copy.
	Channel int
	Cold    bool
	// Trace, when set, records the radio's own span events (directory reads,
	// hops).
	Trace *obs.Trace
	// Dial overrides a remote transport's dial options for this attach (nil:
	// the transport's own); its Loss and Seed are replaced by the ones above.
	Dial *DialOptions
}

// DialOptions tune one wire subscription (wire.ReceiverOptions is this
// type). The zero value is a lossless (no injected loss) receiver with a
// 256-packet credit window and a 2s silence timeout.
type DialOptions struct {
	// Loss is the injected deterministic packet-loss rate in [0,1), drawn
	// with broadcast.Lost over (Seed, position) at serve time — the same
	// draw as the simulator, on top of whatever the real wire loses.
	Loss float64
	// Seed derives the injected loss pattern (and the dial backoff jitter).
	Seed int64
	// Window is the credit window in packets: how far ahead of the current
	// read position the broadcaster may stream. Default 256 — deep enough
	// that an attentive receiver never stalls the stream, shallow enough
	// that the in-flight bytes sit comfortably in a default socket buffer.
	Window int
	// Timeout bounds one silent wait for the next datagram; on expiry the
	// receiver re-sends its credit (the previous want datagram may itself
	// have been lost) and, after Retries consecutive expiries, declares the
	// wire dead (or re-dials, with Redial). Default 2s.
	Timeout time.Duration
	// Retries is the number of consecutive timeouts tolerated before the
	// feed gives up on the current socket. Default 4.
	Retries int
	// DialTimeout bounds the whole hello/welcome handshake. Within it the
	// hello is re-sent with capped jittered exponential backoff (not a
	// fixed interval: a cold-starting fleet must not synchronize into a
	// hello storm against a booting broadcaster). Default Retries*Timeout,
	// matching the old fixed-interval budget.
	DialTimeout time.Duration
	// Redial is how many reconnection attempts a mid-stream death (silence
	// past Retries, or a bye) is allowed before the feed aborts with
	// ErrDead. Each attempt is a fresh socket and handshake; a welcome with
	// the same cycle geometry resumes the stream in place (the missed air
	// is re-anchored a whole number of cycles ahead, so the partial answer
	// stays valid), a different geometry aborts with ErrRestarted. Default
	// 0: die on the first death, the right call for loopback tests and the
	// historical behavior.
	Redial int
}

// Attachment is one radio on the air: the feed a broadcast.Tuner listens to,
// the position to start it at, and the feed's release and accounting.
type Attachment struct {
	Feed  broadcast.Feed
	Start int
	Link
}

// Tuner positions a tuner on the attachment's feed.
func (a Attachment) Tuner() *broadcast.Tuner { return broadcast.NewFeedTuner(a.Feed, a.Start) }

// Link is the part of an attachment that outlives the listening: releasing
// the feed and reading what the air did to it. Every method stays valid
// after Release.
type Link interface {
	// Release gives the feed back (unsubscribes, closes the socket). pos is
	// where the tuner left the air; the result is the cursor an offline
	// session tunes in at next. Call it exactly once, on every exit path.
	Release(pos int) (next int)
	// Missed counts packets the air dropped on this feed before the radio
	// could have them — a paced station's misses, a wire's gaps —
	// that the tuner then received as corrupted: a subset of Tuner.Lost.
	Missed() int
	// PerChannel is packets received per channel and Hops the channel
	// retunes of a hopping radio; nil and zero on a single channel.
	PerChannel() []int
	Hops() int
}

// Unmanaged is the lifecycle of an air nobody here starts or stops and
// nobody stays subscribed to; the offline and remote transports embed it.
type Unmanaged struct{}

func (Unmanaged) Subscribers() int            { return 0 }
func (Unmanaged) Start(context.Context) error { return nil }
func (Unmanaged) Stop()                       {}

// Offline is the paper's model: one channel replaying the cycle, the same
// loss pattern for every listener.
type Offline struct {
	*broadcast.Channel
	Unmanaged
}

// NewOffline returns the offline single-channel air for the cycle.
func NewOffline(c *broadcast.Cycle, loss float64, seed int64) (Offline, error) {
	ch, err := broadcast.NewChannel(c, loss, seed)
	return Offline{Channel: ch}, err
}

func (o Offline) Rate() int       { return 0 }
func (o Offline) Version() uint32 { return o.Cycle().Version }

func (o Offline) Attach(t Tune) (Attachment, error) {
	return Attachment{Feed: o.Channel, Start: t.Cursor, Link: offlineLink{}}, nil
}

// offlineLink: nothing to close, and the next query tunes in where this one
// left the channel.
type offlineLink struct{}

func (offlineLink) Release(pos int) int { return pos }
func (offlineLink) Missed() int         { return 0 }
func (offlineLink) PerChannel() []int   { return nil }
func (offlineLink) Hops() int           { return 0 }

// OfflineAir is the replayed K-channel air: Cursor is a global clock tick.
type OfflineAir struct {
	*multichannel.Air
	Unmanaged
}

// NewOfflineAir returns the offline K-channel air for the plan.
func NewOfflineAir(p *multichannel.Plan, loss float64, seed int64) (OfflineAir, error) {
	air, err := multichannel.NewAir(p, loss, seed)
	return OfflineAir{Air: air}, err
}

func (o OfflineAir) Len() int        { return o.Plan().LogicalLen() }
func (o OfflineAir) Rate() int       { return 0 }
func (o OfflineAir) Version() uint32 { return o.Plan().Logical.Version }

func (o OfflineAir) Attach(t Tune) (Attachment, error) {
	rx, err := o.Rx(t.Cursor, multichannel.RxOptions{Channel: t.Channel, Cold: t.Cold})
	if err != nil {
		return Attachment{}, err
	}
	return radio(rx, t.Trace), nil
}

// radio attaches a tuned-in hopping radio, offline or live.
func radio(rx *multichannel.Rx, tr *obs.Trace) Attachment {
	rx.SetTrace(tr)
	return Attachment{Feed: rx, Start: rx.StartPos(), Link: radioLink{rx}}
}

// radioLink: Missed, PerChannel and Hops are the radio's own; the next
// offline tune-in is the global tick it left the air at.
type radioLink struct{ *multichannel.Rx }

func (l radioLink) Release(int) int { l.Close(); return l.Clock() }

// Live is a live single-channel station: every attach is an exact
// subscription (the station sends it what its tuner wants and the spans it
// declares) at whatever the station is transmitting.
type Live struct{ *station.Station }

func (l Live) Start(ctx context.Context) error { return started(l.Station.Start(ctx)) }

func (l Live) Attach(t Tune) (Attachment, error) {
	sub, err := l.SubscribeExact(t.Loss, t.Seed)
	if err != nil {
		return Attachment{}, err
	}
	return Attachment{Feed: sub, Start: sub.Start(), Link: subLink{sub}}, nil
}

// subLink: Missed is the subscription's own backpressure count.
type subLink struct{ *station.Sub }

func (l subLink) Release(int) int   { l.Close(); return 0 }
func (l subLink) PerChannel() []int { return nil }
func (l subLink) Hops() int         { return 0 }

// LiveGroup is a live K-channel station group: every attach is a hopping
// radio holding one exact subscription per shard.
type LiveGroup struct{ *multichannel.Station }

func (l LiveGroup) Start(ctx context.Context) error { return started(l.Station.Start(ctx)) }

func (l LiveGroup) Attach(t Tune) (Attachment, error) {
	rx, err := l.Subscribe(t.Loss, t.Seed, multichannel.RxOptions{Channel: t.Channel, Cold: t.Cold})
	if err != nil {
		return Attachment{}, err
	}
	return radio(rx, t.Trace), nil
}

// started makes Start idempotent: an air already transmitting is what the
// caller asked for.
func started(err error) error {
	if errors.Is(err, station.ErrStarted) {
		return nil
	}
	return err
}
