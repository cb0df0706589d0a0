package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/packet"
)

// FuzzControlFrames feeds arbitrary bodies to every control-frame parser
// (hello, welcome, want, busy). None may panic; whatever parses must
// re-encode to the same body; a parsed welcome's run lookup must equal the
// schedule expanded straight from the body; and what the welcome parser
// allocates is bounded by the body's length, never by the cycle length the
// body claims.
func FuzzControlFrames(f *testing.F) {
	body := func(frame []byte) []byte {
		_, b, err := packet.OpenEnvelope(frame)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(body(appendHello(nil, 256)))
	f.Add(body(appendWant(nil, 1000, 1256)))
	f.Add(body(appendBusy(nil, 3, 4)))
	w, err := appendWelcomeBody(nil, welcome{Start: 77, CycleLen: 10, Version: 2, Rate: 384000,
		Kinds: schedule{{2, packet.KindIndex}, {9, packet.KindData}, {10, packet.KindIndex}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(w)
	// A CRC-valid welcome claiming the largest cycle in one run: it used to
	// expand to one byte per claimed position.
	hostile := binary.LittleEndian.AppendUint64(nil, 0)
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<32-1)
	hostile = binary.LittleEndian.AppendUint64(hostile, 0)
	hostile = append(hostile, byte(packet.KindData))
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<32-1)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, b []byte) {
		if window, err := parseHello(b); err == nil {
			if got := body(appendHello(nil, window)); !bytes.Equal(got, b) {
				t.Fatalf("hello %x re-encodes to %x", b, got)
			}
		}
		if pos, limit, err := parseWant(b); err == nil {
			if got := body(appendWant(nil, pos, limit)); !bytes.Equal(got, b) {
				t.Fatalf("want %x re-encodes to %x", b, got)
			}
		}
		if remotes, max, err := parseBusy(b); err == nil {
			if got := body(appendBusy(nil, remotes, max)); !bytes.Equal(got, b) {
				t.Fatalf("busy %x re-encodes to %x", b, got)
			}
		}
		w, err := parseWelcome(b)
		if err != nil {
			return
		}
		if got, err := appendWelcomeBody(nil, w); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("welcome %x re-encodes to %x (err %v)", b, got, err)
		}
		if cap(w.Kinds) > len(b)/runSize {
			t.Fatalf("a %d-byte welcome allocated room for %d runs", len(b), cap(w.Kinds))
		}
		// Expand the schedule from the body itself. Every position is checked
		// on cycles up to 1<<16 packets; on longer ones, the first and last
		// position of every run, where a lookup off by one would show.
		pos := 0
		for rest := b[welcomeHeader:]; len(rest) > 0; rest = rest[runSize:] {
			kind, n := packet.Kind(rest[0]), int(binary.LittleEndian.Uint32(rest[1:]))
			for i := 0; i < n; i++ {
				if w.CycleLen > 1<<16 && i == 1 {
					i = n - 1
				}
				if got := w.Kinds.at(pos + i); got != kind {
					t.Fatalf("position %d: lookup %v, schedule %v", pos+i, got, kind)
				}
			}
			pos += n
		}
	})
}
