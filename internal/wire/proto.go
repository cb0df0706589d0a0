// Package wire puts the broadcast on a real wire: a UDP datagram transport
// carrying the fixed-size packet encoding of internal/packet behind the
// feed interfaces of internal/broadcast. A Broadcaster drains a live
// station.Station onto a socket — one CRC frame per packet, as many frames
// per datagram as are ready to go (maxDatagram), a run of full datagrams
// per write where the kernel segments UDP writes, one per-remote
// subscription with receiver-driven credit — and a Receiver presents the received frames
// as a broadcast.Feed, so the ordinary Tuner (and therefore every scheme
// client, and deploy.Session unchanged) runs on top of a remote broadcast
// exactly as it does in process.
//
// Loss is now real: a datagram the network drops, truncates or corrupts
// (every frame carries the CRC32-C envelope of internal/packet) surfaces to
// the client as corrupted receptions counted in Tuner.Lost — every position
// of a dropped datagram, only the damaged frames of a corrupted one — never
// as a wrong answer. On top of the physical loss the receiver applies the
// same deterministic injected-loss draw as the simulator (broadcast.Lost
// over (seed, position) at serve time), which is what keeps a loopback
// receiver at zero injected loss bit-identical — answers and
// tuning/latency/lost accounting — to an offline replay from the same
// tune-in position.
//
// Control protocol (all frames ride the packet envelope; data frames use
// packet.FrameData, control frames the 0x10+ range; a control frame always
// travels alone in its datagram):
//
//	hello    receiver -> broadcaster  window u32 (initial credit request)
//	welcome  broadcaster -> receiver  start u64, cycleLen u32, version u32,
//	                                  rate u32, kind schedule (RLE)
//	want     receiver -> broadcaster  pos u64 (lowest position still
//	                                  needed), limit u64 (exclusive credit)
//	bye      either direction         stream over
//	busy     broadcaster -> receiver  remotes u32, max u32 (admission
//	                                  refusal: at capacity, try elsewhere)
//
// The welcome's kind schedule lets the receiver serve a position the wire
// lost with the correct packet kind (clients may inspect Kind even on a
// corrupted reception — the radio knows what slot it was tuned to), exactly
// like the in-process feeds serve losses from the cycle itself.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/packet"
)

// maxDatagram is the most either end writes into one UDP datagram, and so
// the size of the broadcaster's control read buffer: under a 1500-byte MTU
// with room for the IP and UDP headers and a tunnel's, it holds nine full
// data frames (packet.MaxFrameSize each). The pump fills a datagram up to
// nine (segSize); a welcome whose kind schedule would not fit is refused
// when the broadcaster is set up (appendWelcomeBody). A receiver reads
// into a larger buffer, since one read may return a run of datagrams
// (rxBufs).
const maxDatagram = 1400

// Control frame types, in the envelope range reserved for transports.
const (
	frameHello   uint8 = 0x10
	frameWelcome uint8 = 0x11
	frameWant    uint8 = 0x12
	frameBye     uint8 = 0x13
	frameBusy    uint8 = 0x14
)

// errProto reports a syntactically valid envelope whose control body does
// not parse; like corrupt frames, such datagrams are dropped, never fatal.
var errProto = errors.New("wire: malformed control frame")

// welcome is the handshake reply: everything a receiver needs to serve the
// broadcast as a Feed with no side channel.
type welcome struct {
	Start    uint64 // absolute position of the remote's first packet
	CycleLen uint32
	Version  uint32   // cycle version on the air at subscribe time
	Rate     uint32   // bit rate queries are costed at
	Kinds    schedule // covers exactly CycleLen positions
}

// kindRun is one run of a kind schedule: the positions from the previous
// run's End up to End (exclusive) carry Kind.
type kindRun struct {
	End  uint32
	Kind packet.Kind
}

// schedule is a cycle's kind schedule kept as its runs, the form it travels
// in: cycles are built section by section, so runs are O(sections), not
// O(packets), and at most 273 fit a welcome datagram.
type schedule []kindRun

// welcomeHeader is the fixed part of a welcome body (start, cycleLen,
// version, rate) and runSize one encoded run (kind, count).
const (
	welcomeHeader = 20
	runSize       = 5
)

// add extends the schedule by one position of kind k.
func (s schedule) add(k packet.Kind) schedule {
	if n := len(s); n > 0 && s[n-1].Kind == k {
		s[n-1].End++
		return s
	}
	return append(s, kindRun{End: s.len() + 1, Kind: k})
}

// len returns how many positions the schedule covers.
func (s schedule) len() uint32 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].End
}

// at returns the kind of cycle slot i (0 <= i < s.len()): the first run
// ending past i, by binary search.
func (s schedule) at(i int) packet.Kind {
	return s[sort.Search(len(s), func(m int) bool { return int(s[m].End) > i })].Kind
}

// appendHello frames a hello with the receiver's requested initial credit
// window in packets.
func appendHello(dst []byte, window uint32) []byte {
	var body [4]byte
	binary.LittleEndian.PutUint32(body[:], window)
	return packet.AppendEnvelope(dst, frameHello, body[:])
}

// parseHello returns the requested credit window.
func parseHello(body []byte) (window uint32, err error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("%w: hello body of %d bytes", errProto, len(body))
	}
	return binary.LittleEndian.Uint32(body), nil
}

// appendWelcomeBody encodes a welcome body onto dst, the kind schedule as
// its runs. It refuses a schedule that does not cover the cycle, and a
// welcome that would not fit a datagram: no receiver reads one that large,
// and a cycle alternating kinds every few packets could need it, so that is
// a broadcaster setup error. The body is framed with packet.AppendEnvelope.
func appendWelcomeBody(dst []byte, w welcome) ([]byte, error) {
	if w.CycleLen == 0 || w.Kinds.len() != w.CycleLen {
		return nil, fmt.Errorf("wire: welcome kind schedule of %d positions for a %d-packet cycle", w.Kinds.len(), w.CycleLen)
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, w.Start)
	dst = binary.LittleEndian.AppendUint32(dst, w.CycleLen)
	dst = binary.LittleEndian.AppendUint32(dst, w.Version)
	dst = binary.LittleEndian.AppendUint32(dst, w.Rate)
	prev := uint32(0)
	for _, r := range w.Kinds {
		dst = append(dst, byte(r.Kind))
		dst = binary.LittleEndian.AppendUint32(dst, r.End-prev)
		prev = r.End
	}
	if packet.EnvelopeOverhead+len(dst)-start > maxDatagram {
		return nil, fmt.Errorf("wire: kind schedule of %d runs does not fit a %d-byte welcome datagram", len(w.Kinds), maxDatagram)
	}
	return dst, nil
}

// parseWelcome decodes and validates a welcome body. The kind schedule stays
// in runs, so what it allocates is bounded by the body's length, never by
// the cycle length a hostile (yet CRC-valid) welcome may claim.
func parseWelcome(body []byte) (welcome, error) {
	if len(body) < welcomeHeader || packet.EnvelopeOverhead+len(body) > maxDatagram {
		return welcome{}, fmt.Errorf("%w: welcome body of %d bytes", errProto, len(body))
	}
	w := welcome{
		Start:    binary.LittleEndian.Uint64(body),
		CycleLen: binary.LittleEndian.Uint32(body[8:]),
		Version:  binary.LittleEndian.Uint32(body[12:]),
		Rate:     binary.LittleEndian.Uint32(body[16:]),
	}
	if w.CycleLen == 0 || w.Start > 1<<62 {
		return welcome{}, fmt.Errorf("%w: welcome cycleLen %d start %d", errProto, w.CycleLen, w.Start)
	}
	rest := body[welcomeHeader:]
	if len(rest)%runSize != 0 {
		return welcome{}, fmt.Errorf("%w: truncated kind run", errProto)
	}
	w.Kinds = make(schedule, 0, len(rest)/runSize)
	end := uint64(0)
	for ; len(rest) > 0; rest = rest[runSize:] {
		n := binary.LittleEndian.Uint32(rest[1:])
		end += uint64(n)
		if n == 0 || end > uint64(w.CycleLen) {
			return welcome{}, fmt.Errorf("%w: kind schedule overruns the cycle", errProto)
		}
		w.Kinds = append(w.Kinds, kindRun{End: uint32(end), Kind: packet.Kind(rest[0])})
	}
	if end != uint64(w.CycleLen) {
		return welcome{}, fmt.Errorf("%w: kind schedule covers %d of %d positions", errProto, end, w.CycleLen)
	}
	return w, nil
}

// appendWant frames a credit update: the receiver needs no position below
// pos and grants the broadcaster credit to stream positions below limit.
func appendWant(dst []byte, pos, limit uint64) []byte {
	var body [16]byte
	binary.LittleEndian.PutUint64(body[:], pos)
	binary.LittleEndian.PutUint64(body[8:], limit)
	return packet.AppendEnvelope(dst, frameWant, body[:])
}

// parseWant decodes a credit update.
func parseWant(body []byte) (pos, limit uint64, err error) {
	if len(body) != 16 {
		return 0, 0, fmt.Errorf("%w: want body of %d bytes", errProto, len(body))
	}
	pos = binary.LittleEndian.Uint64(body)
	limit = binary.LittleEndian.Uint64(body[8:])
	if pos > 1<<62 || limit > 1<<62 {
		return 0, 0, fmt.Errorf("%w: want pos %d limit %d", errProto, pos, limit)
	}
	return pos, limit, nil
}

// appendBye frames an end-of-stream notice.
func appendBye(dst []byte) []byte {
	return packet.AppendEnvelope(dst, frameBye, nil)
}

// appendBusy frames an admission refusal: the broadcaster (or its station)
// is at capacity and will not subscribe this remote. The body carries the
// current remote count and the cap, so a shed client can report *why* it
// was refused. Unlike silence, a busy frame lets the receiver fail fast
// with a typed error instead of burning its whole dial deadline.
func appendBusy(dst []byte, remotes, max uint32) []byte {
	var body [8]byte
	binary.LittleEndian.PutUint32(body[:], remotes)
	binary.LittleEndian.PutUint32(body[4:], max)
	return packet.AppendEnvelope(dst, frameBusy, body[:])
}

// parseBusy decodes an admission refusal.
func parseBusy(body []byte) (remotes, max uint32, err error) {
	if len(body) != 8 {
		return 0, 0, fmt.Errorf("%w: busy body of %d bytes", errProto, len(body))
	}
	return binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint32(body[4:]), nil
}
