package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Wire framing. A broadcast Packet travelling outside the process — as a UDP
// datagram (internal/wire), or spooled to disk — is wrapped in a frame that
// makes corruption detectable: in-process feeds hand around immutable cycle
// slices, but a real wire truncates, duplicates and bit-flips for real, and
// an unframed payload would decode as silent garbage (Dec is error-sticky,
// not self-validating). Every frame carries a magic number, an explicit body
// length, and a CRC32-C trailer over everything before it; a frame that
// fails any check is rejected whole and surfaces to the client as a
// corrupted reception (counted in Tuner.Lost), never as a wrong answer.
//
// Envelope layout (little endian, like every record payload):
//
//	offset 0  magic    u32  FrameMagic
//	offset 4  type     u8   FrameData, or a transport control type
//	offset 5  bodyLen  u16  length of body
//	offset 7  body     ...  type-specific
//	offset 7+bodyLen   u32  CRC32-C over bytes [0, 7+bodyLen)
//
// A data frame's body is the packet header plus its absolute broadcast
// position and the cycle length (so a receiver can do cyclic arithmetic
// without any side channel):
//
//	kind      u8
//	pos       u64  absolute broadcast position
//	nextIndex u32
//	version   u32  cycle version stamped on the packet
//	cycleLen  u32  cycle length in packets
//	payload   ...  the packet's record area (rest of the body)
//
// The frame envelope is transport overhead, not airtime: it is not charged
// against the 128-byte packet budget, exactly as the simulation's loss flag
// and position bookkeeping never were (DESIGN.md §11).
//
// Envelopes are self-delimiting (magic + declared length), so a transport
// may write several back to back into one datagram; SplitEnvelope walks such
// a run, and every envelope still stands or falls by its own CRC.

// FrameMagic marks every framed datagram ("AIRF", little endian).
const FrameMagic uint32 = 0x46524941

// FrameData is the frame type of a framed broadcast packet. Transport
// control types (internal/wire's hello/want handshake) use the 0x10+ range.
const FrameData uint8 = 1

// envelopeHeader is magic (4) + type (1) + bodyLen (2).
const envelopeHeader = 7

// EnvelopeOverhead is what an envelope adds to its body: the header plus
// the CRC trailer.
const EnvelopeOverhead = envelopeHeader + 4

// dataHeader is the fixed part of a data-frame body:
// kind (1) + pos (8) + nextIndex (4) + version (4) + cycleLen (4).
const dataHeader = 21

// MaxFrameSize is the largest framed datagram a broadcast packet produces:
// every conforming frame fits in one unfragmented UDP datagram.
const MaxFrameSize = EnvelopeOverhead + dataHeader + PayloadSize

// ErrCorruptFrame reports a frame that failed an integrity check — short
// read, bad magic, length mismatch, or CRC failure. All frame decode errors
// wrap it, so transports match with errors.Is and account the datagram as a
// corrupted reception.
var ErrCorruptFrame = errors.New("packet: corrupt frame")

// castagnoli is the CRC32-C table (the checksum with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendEnvelope frames body as one datagram of the given type onto dst:
// magic, type, explicit length, body, CRC32-C trailer. It panics if body
// exceeds the u16 length field — frames are datagram-sized by construction.
func AppendEnvelope(dst []byte, ftype uint8, body []byte) []byte {
	if len(body) > 0xffff {
		panic(fmt.Sprintf("packet: frame body of %d bytes exceeds the length field", len(body)))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, FrameMagic)
	dst = append(dst, ftype)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// SplitEnvelope finds the boundary of the first envelope in b, a run of one
// or more envelopes written back to back: it checks the magic and that the
// declared length fits — not the CRC, which is OpenEnvelope's job — and
// returns that envelope's bytes and whatever follows it. A failure (wrapping
// ErrCorruptFrame) means b has no trustworthy boundary: nothing after this
// point in the datagram can be located, so the caller drops the rest.
func SplitEnvelope(b []byte) (env, rest []byte, err error) {
	if len(b) < EnvelopeOverhead {
		return nil, nil, fmt.Errorf("%w: %d bytes, want >= %d", ErrCorruptFrame, len(b), EnvelopeOverhead)
	}
	if m := binary.LittleEndian.Uint32(b); m != FrameMagic {
		return nil, nil, fmt.Errorf("%w: magic %08x", ErrCorruptFrame, m)
	}
	n := int(binary.LittleEndian.Uint16(b[5:]))
	total := EnvelopeOverhead + n
	if len(b) < total {
		return nil, nil, fmt.Errorf("%w: %d bytes for a %d-byte body", ErrCorruptFrame, len(b), n)
	}
	return b[:total:total], b[total:], nil
}

// OpenEnvelope verifies exactly one envelope — magic, declared length, CRC —
// and returns its type and body. The body aliases b. Any failure returns an
// error wrapping ErrCorruptFrame; OpenEnvelope never panics on hostile
// input (FuzzFrame pins this).
func OpenEnvelope(b []byte) (ftype uint8, body []byte, err error) {
	if len(b) < EnvelopeOverhead {
		return 0, nil, fmt.Errorf("%w: %d bytes, want >= %d", ErrCorruptFrame, len(b), EnvelopeOverhead)
	}
	if m := binary.LittleEndian.Uint32(b); m != FrameMagic {
		return 0, nil, fmt.Errorf("%w: magic %08x", ErrCorruptFrame, m)
	}
	n := int(binary.LittleEndian.Uint16(b[5:]))
	total := EnvelopeOverhead + n
	if len(b) != total {
		return 0, nil, fmt.Errorf("%w: %d bytes for a %d-byte body", ErrCorruptFrame, len(b), n)
	}
	sum := binary.LittleEndian.Uint32(b[total-4:])
	if got := crc32.Checksum(b[:total-4], castagnoli); got != sum {
		return 0, nil, fmt.Errorf("%w: crc %08x, want %08x", ErrCorruptFrame, got, sum)
	}
	return b[4], b[envelopeHeader : total-4], nil
}

// Frame is one decoded data frame: a broadcast packet plus its absolute
// position and the cycle length it belongs to.
type Frame struct {
	Pos      uint64
	CycleLen uint32
	Pkt      Packet
}

// AppendFrame frames packet p at absolute position pos of a cycleLen-packet
// cycle onto dst, in the envelope + data-body wire format. The payload is
// copied into dst; the input packet is not retained.
func AppendFrame(dst []byte, pos uint64, cycleLen uint32, p Packet) []byte {
	var body [dataHeader + PayloadSize]byte
	body[0] = uint8(p.Kind)
	binary.LittleEndian.PutUint64(body[1:], pos)
	binary.LittleEndian.PutUint32(body[9:], p.NextIndex)
	binary.LittleEndian.PutUint32(body[13:], p.Version)
	binary.LittleEndian.PutUint32(body[17:], cycleLen)
	n := copy(body[dataHeader:], p.Payload)
	return AppendEnvelope(dst, FrameData, body[:dataHeader+n])
}

// DecodeFrame verifies and decodes one data frame. The returned packet's
// payload aliases b; receivers that buffer frames across reads hand each
// datagram its own buffer. A frame of any other type, or one failing an
// integrity check, returns an error wrapping ErrCorruptFrame.
func DecodeFrame(b []byte) (Frame, error) {
	ftype, body, err := OpenEnvelope(b)
	if err != nil {
		return Frame{}, err
	}
	if ftype != FrameData {
		return Frame{}, fmt.Errorf("%w: type %d, want data", ErrCorruptFrame, ftype)
	}
	return DecodeData(body)
}

// DecodeData decodes the body of a FrameData envelope OpenEnvelope already
// verified — for a transport that opens every envelope itself to dispatch
// on its type, and must not pay the checksum twice. The returned packet's
// payload aliases body.
func DecodeData(body []byte) (Frame, error) {
	var f Frame
	err := f.decode(body)
	return f, err
}

// decode fills f from a data-frame body; f is left zero on error.
func (f *Frame) decode(body []byte) error {
	if len(body) < dataHeader {
		return fmt.Errorf("%w: %d-byte data body", ErrCorruptFrame, len(body))
	}
	pos, cycleLen := binary.LittleEndian.Uint64(body[1:]), binary.LittleEndian.Uint32(body[17:])
	if cycleLen == 0 || pos > (1<<62) {
		return fmt.Errorf("%w: cycleLen %d pos %d", ErrCorruptFrame, cycleLen, pos)
	}
	if n := len(body) - dataHeader; n > PayloadSize {
		return fmt.Errorf("%w: %d-byte payload exceeds PayloadSize", ErrCorruptFrame, n)
	}
	*f = Frame{
		Pos:      pos,
		CycleLen: cycleLen,
		Pkt: Packet{
			Kind:      Kind(body[0]),
			NextIndex: binary.LittleEndian.Uint32(body[9:]),
			Version:   binary.LittleEndian.Uint32(body[13:]),
			Payload:   body[dataHeader:],
		},
	}
	return nil
}
