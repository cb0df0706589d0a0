package packet

import (
	"bytes"
	"errors"
	"testing"
)

func testPacket() Packet {
	var e Enc
	e.U32(0xdeadbeef)
	e.F32(3.25)
	payload := AppendRecord(nil, TagNode, e.Bytes())
	p := Packet{Kind: KindData, NextIndex: 17, Version: 3, Payload: make([]byte, PayloadSize)}
	copy(p.Payload, payload)
	return p
}

func TestFrameRoundTrip(t *testing.T) {
	p := testPacket()
	b := AppendFrame(nil, 123456789, 4321, p)
	if len(b) != MaxFrameSize {
		t.Fatalf("frame of %d bytes, want MaxFrameSize=%d", len(b), MaxFrameSize)
	}
	f, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pos != 123456789 || f.CycleLen != 4321 {
		t.Fatalf("decoded pos=%d cycleLen=%d", f.Pos, f.CycleLen)
	}
	if f.Pkt.Kind != p.Kind || f.Pkt.NextIndex != p.NextIndex || f.Pkt.Version != p.Version {
		t.Fatalf("decoded header %v, want %v", f.Pkt, p)
	}
	if !bytes.Equal(f.Pkt.Payload, p.Payload) {
		t.Fatal("payload mismatch after round trip")
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	b := AppendFrame(nil, 7, 100, testPacket())
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeFrame(b[:cut]); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
}

func TestFrameRejectsBitFlips(t *testing.T) {
	b := AppendFrame(nil, 7, 100, testPacket())
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), b...)
			mut[i] ^= 1 << bit
			if _, err := DecodeFrame(mut); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("bit flip at byte %d bit %d decoded without error", i, bit)
			}
		}
	}
}

func TestFrameRejectsTrailingGarbage(t *testing.T) {
	b := AppendFrame(nil, 7, 100, testPacket())
	if _, err := DecodeFrame(append(b, 0)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatal("trailing byte decoded without error")
	}
}

func TestEnvelopeTypes(t *testing.T) {
	b := AppendEnvelope(nil, 0x10, []byte("hello"))
	ftype, body, err := OpenEnvelope(b)
	if err != nil || ftype != 0x10 || string(body) != "hello" {
		t.Fatalf("ftype=%d body=%q err=%v", ftype, body, err)
	}
	// A control frame is not a data frame.
	if _, err := DecodeFrame(b); !errors.Is(err, ErrCorruptFrame) {
		t.Fatal("control frame decoded as data")
	}
}

// batchOf returns n valid data frames written back to back, positions
// first..first+n-1: the shape of one wire datagram.
func batchOf(first uint64, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = AppendFrame(b, first+uint64(i), 997, testPacket())
	}
	return b
}

func TestSplitEnvelopeWalksBatch(t *testing.T) {
	rest := batchOf(40, 9)
	for i := 0; i < 9; i++ {
		env, tail, err := SplitEnvelope(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		f, err := DecodeFrame(env)
		if err != nil || f.Pos != 40+uint64(i) {
			t.Fatalf("frame %d: pos %d err %v", i, f.Pos, err)
		}
		rest = tail
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after nine frames", len(rest))
	}
	if _, _, err := SplitEnvelope(rest); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("empty tail split without error: %v", err)
	}
}

// walk splits b envelope by envelope the way a receiver does and checks the
// boundary finder's contract on every step: an envelope it returns is a
// prefix of the input, makes progress, and — when OpenEnvelope accepts it —
// is accepted as the very same bytes; a failure wraps ErrCorruptFrame. It
// returns how many envelopes opened cleanly.
func walk(t *testing.T, b []byte) (opened int) {
	for len(b) > 0 {
		env, rest, err := SplitEnvelope(b)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("split error outside ErrCorruptFrame: %v", err)
			}
			return opened
		}
		if len(env) < EnvelopeOverhead || len(env)+len(rest) != len(b) || !bytes.Equal(env, b[:len(env)]) {
			t.Fatalf("split %d bytes into %d + %d", len(b), len(env), len(rest))
		}
		if _, _, err := OpenEnvelope(env); err == nil {
			opened++
		} else if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("open error outside ErrCorruptFrame: %v", err)
		}
		if fr, err := DecodeFrame(env); err == nil {
			if re := AppendFrame(nil, fr.Pos, fr.CycleLen, fr.Pkt); !bytes.Equal(re, env) {
				t.Fatalf("accepted frame does not round-trip: %x != %x", re, env)
			}
		}
		b = rest
	}
	return opened
}

// FuzzFrame pins the frame decoder against hostile datagrams: it must never
// panic, and any frame it accepts must re-encode to the exact input bytes
// (so acceptance implies integrity). The same bytes are also walked as a run
// of envelopes (SplitEnvelope), alone and as one mutated byte of a valid
// nine-frame datagram: the boundary finder never panics, never hands out
// bytes OpenEnvelope accepts differently, and a single damaged byte costs at
// most the frames from its own onward. Seed corpus entries cover a valid
// frame, truncations, and bit flips; crashers found by fuzzing are committed
// under testdata/fuzz.
func FuzzFrame(f *testing.F) {
	valid := AppendFrame(nil, 424242, 997, testPacket())
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:envelopeHeader])
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	short := AppendEnvelope(nil, FrameData, []byte{1, 2, 3}) // data frame, body too short
	f.Add(short)
	// Control-frame shapes from the wire protocol (hello/want/busy/bye and
	// a welcome-like RLE body): valid envelopes the data decoder must
	// reject as ErrCorruptFrame without panicking, plus truncations.
	hello := AppendEnvelope(nil, 0x10, []byte{64, 0, 0, 0})
	f.Add(hello)
	f.Add(hello[:len(hello)-2])
	want := AppendEnvelope(nil, 0x12, make([]byte, 16)) // two u64 positions
	f.Add(want)
	f.Add(want[:envelopeHeader+3])
	busy := AppendEnvelope(nil, 0x14, []byte{7, 0, 0, 0, 16, 0, 0, 0})
	f.Add(busy)
	f.Add(AppendEnvelope(nil, 0x13, nil)) // bye: empty body
	welcomeish := AppendEnvelope(nil, 0x11, []byte{
		0, 0, 0, 0, 0, 0, 0, 1, // start
		0, 4, // cycle len
		0, 0, 0, 2, // version
		0, 0, 0, 3, // rate
		2, 0, 2, 1, // RLE kind runs
	})
	f.Add(welcomeish)
	f.Add(welcomeish[:len(welcomeish)-3])
	// Batch shapes: a whole datagram, one cut mid-frame, and bytes whose
	// first two select a length byte and a magic byte of an inner frame.
	batch := batchOf(100, 9)
	f.Add(batch)
	f.Add(batch[:4*MaxFrameSize+30])
	f.Add([]byte{byte((3*MaxFrameSize + 5) & 0xff), byte((3*MaxFrameSize + 5) >> 8), 0x80})
	f.Add([]byte{byte((6 * MaxFrameSize) & 0xff), byte((6 * MaxFrameSize) >> 8), 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("frame error outside ErrCorruptFrame: %v", err)
			}
		} else if re := AppendFrame(nil, fr.Pos, fr.CycleLen, fr.Pkt); !bytes.Equal(re, b) {
			t.Fatalf("accepted frame does not round-trip: %x != %x", re, b)
		}
		walk(t, b)
		if len(b) < 3 {
			return
		}
		// One damaged byte in a valid nine-frame datagram: b picks the byte
		// (first two bytes, modulo the length) and the damage (third, forced
		// non-zero). Frames before the damaged one are untouched.
		mut := append([]byte(nil), batch...)
		at := (int(b[0]) | int(b[1])<<8) % len(mut)
		mut[at] ^= b[2] | 1
		if opened, intact := walk(t, mut), at/MaxFrameSize; opened < intact || opened > 8 {
			t.Fatalf("byte %d damaged: %d of 9 frames opened, want >= %d and <= 8", at, opened, intact)
		}
	})
}
