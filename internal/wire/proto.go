// Package wire puts the broadcast on a real wire: a UDP datagram transport
// carrying the fixed-size packet encoding of internal/packet behind the
// feed interfaces of internal/broadcast. A Broadcaster drains a live
// station.Station onto a socket — one CRC frame per packet, as many frames
// per datagram as are ready to go (maxDatagram), one per-remote subscription
// with receiver-driven credit — and a Receiver presents the received frames
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

	"repro/internal/packet"
)

// maxDatagram is the most either end writes into one UDP datagram, and so
// the size of every read buffer: under a 1500-byte MTU with room for the IP
// and UDP headers and a tunnel's, it holds nine full data frames
// (packet.MaxFrameSize each). The pump fills a datagram up to it; a welcome
// whose kind schedule would not fit is refused when the broadcaster is set
// up (appendWelcome).
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
	Version  uint32 // cycle version on the air at subscribe time
	Rate     uint32 // bit rate queries are costed at
	Kinds    []packet.Kind
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

// appendWelcome frames the handshake reply. The kind schedule is run-length
// encoded; cycles are built section by section, so runs are O(sections),
// not O(packets).
func appendWelcome(dst []byte, w welcome) ([]byte, error) {
	if w.CycleLen == 0 || int(w.CycleLen) != len(w.Kinds) {
		return nil, fmt.Errorf("wire: welcome kind schedule of %d entries for a %d-packet cycle", len(w.Kinds), w.CycleLen)
	}
	body := make([]byte, 0, 64)
	body = binary.LittleEndian.AppendUint64(body, w.Start)
	body = binary.LittleEndian.AppendUint32(body, w.CycleLen)
	body = binary.LittleEndian.AppendUint32(body, w.Version)
	body = binary.LittleEndian.AppendUint32(body, w.Rate)
	runs := 0
	for i := 0; i < len(w.Kinds); {
		j := i
		for j < len(w.Kinds) && w.Kinds[j] == w.Kinds[i] {
			j++
		}
		body = append(body, byte(w.Kinds[i]))
		body = binary.LittleEndian.AppendUint32(body, uint32(j-i))
		runs++
		i = j
	}
	if packet.EnvelopeOverhead+len(body) > maxDatagram {
		// No receiver reads a datagram this large; a cycle alternating kinds
		// every few packets could get here, so refuse it as a broadcaster
		// setup error instead.
		return nil, fmt.Errorf("wire: kind schedule of %d runs does not fit a %d-byte welcome datagram", runs, maxDatagram)
	}
	return packet.AppendEnvelope(dst, frameWelcome, body), nil
}

// maxCycleLen bounds the cycle length a receiver accepts from a welcome: a
// hostile or corrupted (yet CRC-valid) schedule must not allocate
// unboundedly.
const maxCycleLen = 1 << 26

// parseWelcome decodes and validates a welcome body, expanding the kind
// schedule to one entry per cycle position.
func parseWelcome(body []byte) (welcome, error) {
	if len(body) < 20 {
		return welcome{}, fmt.Errorf("%w: welcome body of %d bytes", errProto, len(body))
	}
	w := welcome{
		Start:    binary.LittleEndian.Uint64(body),
		CycleLen: binary.LittleEndian.Uint32(body[8:]),
		Version:  binary.LittleEndian.Uint32(body[12:]),
		Rate:     binary.LittleEndian.Uint32(body[16:]),
	}
	if w.CycleLen == 0 || w.CycleLen > maxCycleLen || w.Start > 1<<62 {
		return welcome{}, fmt.Errorf("%w: welcome cycleLen %d start %d", errProto, w.CycleLen, w.Start)
	}
	w.Kinds = make([]packet.Kind, 0, w.CycleLen)
	for rest := body[20:]; len(rest) > 0; {
		if len(rest) < 5 {
			return welcome{}, fmt.Errorf("%w: truncated kind run", errProto)
		}
		kind := packet.Kind(rest[0])
		n := binary.LittleEndian.Uint32(rest[1:])
		if n == 0 || uint64(len(w.Kinds))+uint64(n) > uint64(w.CycleLen) {
			return welcome{}, fmt.Errorf("%w: kind schedule overruns the cycle", errProto)
		}
		for i := uint32(0); i < n; i++ {
			w.Kinds = append(w.Kinds, kind)
		}
		rest = rest[5:]
	}
	if len(w.Kinds) != int(w.CycleLen) {
		return welcome{}, fmt.Errorf("%w: kind schedule covers %d of %d positions", errProto, len(w.Kinds), w.CycleLen)
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
