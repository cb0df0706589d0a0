package transport_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/station"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// spanCycle assembles regions data sections of uneven length, with a
// global index copy before every third — so a K-channel plan carries
// several entries per channel and a span meets channel boundaries — every
// packet's payload naming its position, and the cycle stamped version v.
func spanCycle(regions, base int, v uint32) *broadcast.Cycle {
	asm := broadcast.NewAssembler()
	section := func(kind packet.Kind, region, n int) {
		pkts := make([]packet.Packet, n)
		for i := range pkts {
			pkts[i] = packet.Packet{Kind: kind, Payload: []byte{byte(region), byte(i), byte(v)}}
		}
		asm.Append(kind, region, "section", pkts)
	}
	for r := 0; r < regions; r++ {
		if r%3 == 0 {
			section(packet.KindIndex, -1, 3)
		}
		section(packet.KindData, r, base+r*r%11)
	}
	c := asm.Finish()
	c.SetVersion(v)
	return c
}

// spanCycles are the fuzz target's cycles: a region cycle, another of
// another length and version a replay swaps to, and a real NR cycle for
// the wire, whose frames carry full-size payloads.
var spanCycles = sync.OnceValues(func() ([2]*broadcast.Cycle, *broadcast.Cycle) {
	g, err := netgen.Generate(300, 420, 11)
	if err != nil {
		panic(err)
	}
	nr, err := core.NewNR(g, core.Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		panic(err)
	}
	return [2]*broadcast.Cycle{spanCycle(10, 12, 0), spanCycle(7, 9, 1)}, nr.Cycle()
})

// Feeds with Span hidden: each forwards exactly the optional interfaces of
// the feed it wraps except broadcast.Spanner, so the tuner takes its At
// path and keeps every accounting mode.
type (
	atFeed     struct{ f broadcast.Feed }
	atSub      struct{ s *station.Sub }
	atRx       struct{ r *multichannel.Rx }
	atReceiver struct{ r *wire.Receiver }
)

func (f atFeed) Len() int                         { return f.f.Len() }
func (f atFeed) At(abs int) (packet.Packet, bool) { return f.f.At(abs) }

func (f atSub) Len() int                         { return f.s.Len() }
func (f atSub) At(abs int) (packet.Packet, bool) { return f.s.At(abs) }
func (f atSub) Prefetch(abs, n int)              { f.s.Prefetch(abs, n) }

func (f atRx) Len() int                         { return f.r.Len() }
func (f atRx) At(abs int) (packet.Packet, bool) { return f.r.At(abs) }
func (f atRx) Clock() int                       { return f.r.Clock() }
func (f atRx) TuneIn() int                      { return f.r.TuneIn() }
func (f atRx) WaitFor(abs int) int              { return f.r.WaitFor(abs) }
func (f atRx) Overhead() int                    { return f.r.Overhead() }
func (f atRx) Stale() bool                      { return f.r.Stale() }
func (f atRx) Prefetch(abs, n int)              { f.r.Prefetch(abs, n) }

func (f atReceiver) Len() int                         { return f.r.Len() }
func (f atReceiver) At(abs int) (packet.Packet, bool) { return f.r.At(abs) }
func (f atReceiver) Clock() int                       { return f.r.Clock() }
func (f atReceiver) TuneIn() int                      { return f.r.TuneIn() }
func (f atReceiver) Stale() bool                      { return f.r.Stale() }
func (f atReceiver) Prefetch(abs, n int)              { f.r.Prefetch(abs, n) }

// hideSpan wraps a feed so that it serves At only.
func hideSpan(t *testing.T, f broadcast.Feed) broadcast.Feed {
	var h broadcast.Feed
	switch f := f.(type) {
	case *station.Sub:
		h = atSub{f}
	case *multichannel.Rx:
		h = atRx{f}
	case *wire.Receiver:
		h = atReceiver{f}
	default:
		h = atFeed{f}
	}
	if _, ok := f.(broadcast.Spanner); !ok {
		t.Fatalf("%T does not serve spans", f)
	}
	if facesOf(f) != facesOf(h) {
		t.Fatalf("%T: hiding Span changed the optional interfaces: %v -> %v", f, facesOf(f), facesOf(h))
	}
	return h
}

func facesOf(f broadcast.Feed) (got [4]bool) {
	_, got[0] = f.(broadcast.Clocked)
	_, got[1] = f.(broadcast.Hopping)
	_, got[2] = f.(broadcast.Refreshable)
	_, got[3] = f.(broadcast.Prefetcher)
	return got
}

// spanAir is one fuzzed air: attach tunes a fresh radio in (on a fresh
// live air, so that both runs of a script tune in at the same position)
// and returns it with its teardown.
type spanAir func(t *testing.T, tr *obs.Trace) (transport.Attachment, func())

// spanAirFor decodes the air a fuzz input selects.
func spanAirFor(t *testing.T, sel uint8, seed int64, start int) (string, spanAir) {
	cycles, wired := spanCycles()
	c, next := cycles[0], cycles[1]
	const loss = 0.15
	k := 1 + int(sel>>3)%4 // K=1..4
	cold := sel&0x80 != 0
	tune := transport.Tune{Cursor: start % (3 * c.Len()), Loss: loss, Seed: seed, Channel: start % k, Cold: cold}
	switch sel % 6 {
	case 0:
		return "channel", func(t *testing.T, tr *obs.Trace) (transport.Attachment, func()) {
			ch, err := broadcast.NewChannel(c, loss, seed)
			if err != nil {
				t.Fatal(err)
			}
			return transport.Attachment{Feed: ch, Start: tune.Cursor, Link: wireLink{}}, func() {}
		}
	case 1:
		return fmt.Sprintf("air K=%d cold=%v", k, cold), func(t *testing.T, tr *obs.Trace) (transport.Attachment, func()) {
			air, err := transport.NewOfflineAir(c, k, loss, seed)
			if err != nil {
				t.Fatal(err)
			}
			tune := tune
			tune.Trace = tr
			att, err := air.Attach(tune)
			if err != nil {
				t.Fatal(err)
			}
			return att, func() { att.Release(0) }
		}
	case 2:
		return "live sub", func(t *testing.T, tr *obs.Trace) (transport.Attachment, func()) {
			st, err := station.New(c, station.Config{})
			if err != nil {
				t.Fatal(err)
			}
			air := transport.Live{Station: st}
			if err := air.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			att, err := air.Attach(tune)
			if err != nil {
				t.Fatal(err)
			}
			return att, func() { att.Release(0); air.Stop() }
		}
	case 3:
		k := max(k, 2)
		return fmt.Sprintf("live group K=%d cold=%v", k, cold), func(t *testing.T, tr *obs.Trace) (transport.Attachment, func()) {
			p, err := multichannel.Build(c, k, multichannel.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			mst, err := multichannel.NewStation(p, station.Config{})
			if err != nil {
				t.Fatal(err)
			}
			air := transport.LiveGroup{Station: mst}
			if err := air.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			tune := tune
			tune.Channel, tune.Trace = start%k, tr
			att, err := air.Attach(tune)
			if err != nil {
				t.Fatal(err)
			}
			return att, func() { att.Release(0); air.Stop() }
		}
	case 4:
		injected := 0.0
		if cold {
			injected = 0.08
		}
		return fmt.Sprintf("loopback loss=%v", injected), func(t *testing.T, tr *obs.Trace) (transport.Attachment, func()) {
			st, err := station.New(wired, station.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			b, err := wire.NewBroadcaster("127.0.0.1:0", st, wire.BroadcasterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rx, err := wire.Dial(b.Addr().String(), wire.ReceiverOptions{Loss: injected, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			att := transport.Attachment{Feed: rx, Start: rx.Start(), Link: wireLink{rx}}
			return att, func() { rx.Close(); b.Close(); st.Stop() }
		}
	default:
		// The swap lands within the first three cycles after tune-in, so
		// spans cross it and the cycle length changes under them.
		swap := (tune.Cursor/c.Len() + 1 + int(sel>>3)%3) * c.Len()
		return fmt.Sprintf("replay swap@%d", swap), func(t *testing.T, tr *obs.Trace) (transport.Attachment, func()) {
			rp, err := update.NewReplay(c, loss, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.SwapAt(swap, next); err != nil {
				t.Fatal(err)
			}
			return transport.Attachment{Feed: rp, Start: tune.Cursor, Link: wireLink{}}, func() {}
		}
	}
}

// wireLink reads a receiver's gaps as its missed packets (wire.Remote's
// link, which a direct Dial does not come with); with no receiver it is the
// link of a feed built directly, which misses nothing.
type wireLink struct{ rx *wire.Receiver }

func (l wireLink) Release(int) int { return 0 }
func (l wireLink) Missed() int {
	if l.rx == nil {
		return 0
	}
	return l.rx.WireLost()
}
func (l wireLink) PerChannel() []int { return nil }
func (l wireLink) Hops() int         { return 0 }

// runScript drives one tuner over att through the script and returns its
// log: every reception, the tuner's accounting after every step, how the
// run ended, the trace and the feed's own counters.
func runScript(t *testing.T, air spanAir, hide bool, ops []byte) string {
	tr := obs.NewTrace(4096)
	att, done := air(t, tr)
	defer done()
	feed := att.Feed
	if hide {
		feed = hideSpan(t, feed)
	}
	tu := broadcast.NewFeedTuner(feed, att.Start)
	tu.SetTrace(tr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tu.Bind(ctx)

	var log strings.Builder
	h := fnv.New64a()
	receive := func(abs int, p packet.Packet, ok bool) {
		h.Reset()
		h.Write(p.Payload)
		fmt.Fprintf(&log, "rx %d kind=%d next=%d v=%d ok=%v payload=%x\n", abs, p.Kind, p.NextIndex, p.Version, ok, h.Sum64())
	}
	state := func(step string) {
		v, known := tu.Version()
		fmt.Fprintf(&log, "%s: pos=%d tuning=%d lost=%d latency=%d version=%d/%v mixed=%v", step,
			tu.Pos(), tu.Tuning(), tu.Lost(), tu.Latency(), v, known, tu.VersionMixed())
		if c, ok := feed.(broadcast.Clocked); ok {
			fmt.Fprintf(&log, " clock=%d", c.Clock())
		}
		log.WriteString("\n")
	}
	err := func() (err error) {
		defer broadcast.RecoverCancel(&err)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for step := 0; len(ops) > 0; step++ {
			b := next()
			switch b % 4 {
			case 0:
				d := next() % 40
				if b&0x40 != 0 {
					d += tu.CycleLen() / 2
				}
				tu.SleepTo(tu.Pos() + d)
			case 1:
				n := 1 + next()
				if b&0x80 != 0 {
					n = tu.CycleLen()
				}
				tu.ListenSpan(n, receive)
			case 2:
				abs := tu.Pos()
				p, ok := tu.Listen()
				receive(abs, p, ok)
			case 3:
				if b&0x10 != 0 {
					tu.SetBudget(tu.Tuning() + 1 + next()%120)
				} else {
					cancel()
				}
			}
			state(fmt.Sprintf("step %d op %d", step, b%4))
		}
		return nil
	}()
	state(fmt.Sprintf("end err=%v", err))
	if err != nil && !errors.Is(err, broadcast.ErrTuningBudget) && !errors.Is(err, context.Canceled) {
		t.Fatalf("script aborted: %v", err)
	}
	for _, e := range tr.Events() {
		fmt.Fprintf(&log, "trace %d %v %d %d\n", e.Seq, e.Kind, e.Pos, e.Arg)
	}
	fmt.Fprintf(&log, "feed missed=%d per-channel=%v hops=%d", att.Missed(), att.PerChannel(), att.Hops())
	if r, ok := feed.(broadcast.Refreshable); ok {
		fmt.Fprintf(&log, " stale=%v", r.Stale())
	}
	return log.String()
}

// FuzzSpanEqualsListens holds Tuner.ListenSpan to its contract: a span of
// n is n Listens. One random script of sleeps, spans, single listens, a
// tuning budget and a context cancel runs twice on identical airs — once
// through the feed's Span, once through a wrapper that hides it — and the
// two runs must agree on every packet and intact flag, on Pos, Tuning,
// Lost, Latency and the version window after every step, on where (and
// why) the run aborted, on the trace, and on the feed's own clock,
// per-channel counts, hops, missed packets and staleness. The airs are
// all five feeds: an offline channel, offline K=1–4 radios warm and cold,
// a live subscription, a live group radio, a loopback receiver at 0 and 8%
// injected loss, and a replay whose cycle length changes mid-script.
func FuzzSpanEqualsListens(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(7), []byte{1, 200, 2, 0, 3, 1, 90, 0x81, 0})
	f.Add(uint8(1), int64(2), uint16(500), []byte{1, 255, 0x40, 0, 1, 64, 0x13, 30, 1, 255, 1, 255})
	f.Add(uint8(0x99), int64(3), uint16(41), []byte{0x81, 0, 2, 2, 0x40, 5, 1, 100, 3, 0x81, 0})
	f.Add(uint8(2), int64(4), uint16(9), []byte{1, 100, 0, 20, 0x81, 0, 0x13, 10, 1, 200})
	f.Add(uint8(0x13), int64(5), uint16(3), []byte{0x81, 0, 0, 7, 1, 150, 0x40, 1, 1, 63})
	f.Add(uint8(0x83), int64(6), uint16(60), []byte{1, 250, 1, 250, 0x13, 40, 1, 250})
	f.Add(uint8(4), int64(7), uint16(0), []byte{1, 200, 2, 0, 1, 17, 0x40, 3, 0x81, 0})
	f.Add(uint8(0x82), int64(8), uint16(0), []byte{0x81, 0, 1, 100, 3, 1, 255})
	f.Add(uint8(0x9d), int64(11), uint16(77), []byte{1, 120, 0x40, 9, 0x81, 0, 3, 2, 1, 90})
	f.Add(uint8(9), int64(12), uint16(5), []byte{0x81, 0, 0, 30, 1, 200, 0x13, 70, 0x81, 0})
	f.Add(uint8(5), int64(9), uint16(400), []byte{0x81, 0, 0x81, 0, 0x81, 0, 1, 255})
	f.Add(uint8(0x1d), int64(10), uint16(100), []byte{0x40, 30, 0x81, 0, 0x13, 50, 0x81, 0})
	f.Fuzz(func(t *testing.T, sel uint8, seed int64, start uint16, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		name, air := spanAirFor(t, sel, seed, int(start))
		spans := runScript(t, air, false, append([]byte(nil), ops...))
		listens := runScript(t, air, true, append([]byte(nil), ops...))
		if spans == listens {
			return
		}
		a, b := strings.Split(spans, "\n"), strings.Split(listens, "\n")
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("%s: line %d differs:\n  span:   %s\n  listen: %s", name, i, a[i], b[i])
			}
		}
		t.Fatalf("%s: logs differ in length: span %d lines, listen %d", name, len(a), len(b))
	})
}
