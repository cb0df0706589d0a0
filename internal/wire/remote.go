package wire

import (
	"fmt"

	"repro/internal/transport"
)

// Remote is the wire as a transport (internal/transport): the broadcaster
// another process serves at an address, where every attach dials a fresh
// UDP subscription — a device waking up, dialing in, asking, tuning out.
type Remote struct {
	transport.Unmanaged
	addr    string
	len     int
	version uint32
	rate    int
}

// remoteRedials is how many reconnection attempts an attach makes by
// default before declaring the broadcaster dead: enough to ride through a
// restart window, few enough that a genuinely gone broadcaster fails within
// a handful of dial timeouts.
const remoteRedials = 2

// NewRemote probes the broadcaster at addr once — failing fast when nobody
// is listening — and records the cycle geometry and bit rate it welcomed the
// probe with. Callers holding a local build of the same cycle compare Len
// and Version against it before trusting any answer.
func NewRemote(addr string) (*Remote, error) {
	probe, err := Dial(addr, ReceiverOptions{})
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	return &Remote{addr: addr, len: probe.Len(), version: probe.Version(), rate: probe.Rate()}, nil
}

// Len, Version and Rate are what the broadcaster welcomed the probe with.
func (r *Remote) Len() int        { return r.len }
func (r *Remote) Version() uint32 { return r.version }
func (r *Remote) Rate() int       { return r.rate }

// Attach dials a subscription with t's loss pattern.
func (r *Remote) Attach(t transport.Tune) (transport.Attachment, error) {
	opts := ReceiverOptions{Redial: remoteRedials}
	if t.Dial != nil {
		opts = *t.Dial
	}
	opts.Loss, opts.Seed = t.Loss, t.Seed
	rx, err := Dial(r.addr, opts)
	if err != nil {
		return transport.Attachment{}, err
	}
	if rx.Len() != r.len {
		// The broadcaster answering this address no longer carries the cycle
		// the probe saw (restarted with a different build?). Answering
		// against it would be silently wrong — fail loudly instead.
		rx.Close()
		return transport.Attachment{}, fmt.Errorf("wire: remote cycle is now %d packets, was %d: %w", rx.Len(), r.len, ErrRestarted)
	}
	return transport.Attachment{Feed: rx, Start: rx.Start(), Link: rxLink{rx}}, nil
}

// rxLink: the wire's gaps are its missed packets, and it is one channel.
type rxLink struct{ *Receiver }

func (l rxLink) Release(int) int   { l.Close(); return 0 }
func (l rxLink) Missed() int       { return l.WireLost() }
func (l rxLink) PerChannel() []int { return nil }
func (l rxLink) Hops() int         { return 0 }
