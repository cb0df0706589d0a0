package precompute

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestBorderCodecRoundTrip: EncodeBorder → DecodeBorder reproduces the
// pre-computation bit-identically, including +Inf cells for unreachable
// region pairs and the elapsed-time stamp.
func TestBorderCodecRoundTrip(t *testing.T) {
	_, r, bd := setup(t, 300, 340, 4, 1)
	bd.Elapsed = 1234567 * time.Microsecond

	var buf bytes.Buffer
	if err := EncodeBorder(&buf, bd, r.N); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != borderBytes(bd, r.N) {
		t.Fatalf("layout size %d, wrote %d", borderBytes(bd, r.N), buf.Len())
	}
	got, n, err := DecodeBorder(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != r.N {
		t.Fatalf("decoded %d regions, want %d", n, r.N)
	}
	if len(got.CrossBorder) != len(bd.CrossBorder) {
		t.Fatalf("decoded %d cross-border flags, want %d", len(got.CrossBorder), len(bd.CrossBorder))
	}
	if got.Elapsed != bd.Elapsed {
		t.Fatalf("elapsed %v, want %v", got.Elapsed, bd.Elapsed)
	}
	equalBorderData(t, "codec", r.N, bd, got)
}

// TestBorderCodecRejectsCorruption: damaged buffers must error.
func TestBorderCodecRejectsCorruption(t *testing.T) {
	_, r, bd := setup(t, 120, 140, 4, 2)
	var buf bytes.Buffer
	if err := EncodeBorder(&buf, bd, r.N); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	damage := func(name string, mutate func([]byte)) {
		data := make([]byte, len(base))
		copy(data, base)
		mutate(data)
		if _, _, err := DecodeBorder(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	damage("bad magic", func(d []byte) { d[0] = 'X' })
	damage("bad version", func(d []byte) { d[4] = 9 })
	damage("bad footer", func(d []byte) { d[len(d)-1] = 'X' })
	damage("region count mismatch", func(d []byte) { d[8] = byte(r.N + 1) })
	damage("cross-border byte out of range", func(d []byte) { d[len(d)-9] |= 0x40 })
	if _, _, err := DecodeBorder(base[:len(base)/2]); err == nil {
		t.Error("truncated buffer accepted")
	}
	if _, _, err := DecodeBorder(base[:8]); err == nil {
		t.Error("sub-header buffer accepted")
	}
}

// hugeHeader is a 40-byte AIRB file whose header claims 2^31 regions: the
// matrix sizes 2·n²·8 and n²·words·8 wrap to 0 in int64, so a size check
// formed from the products alone accepts the bare header and footer.
func hugeHeader() []byte {
	data := make([]byte, borderHeaderLen, borderHeaderLen+8)
	copy(data, borderMagic)
	binary.LittleEndian.PutUint32(data[4:8], borderVersion1)
	binary.LittleEndian.PutUint32(data[8:12], 1<<31)
	return append(data, borderEndMagic...)
}

// TestBorderCodecRejectsWrappingHeader: the 40-byte file errors instead of
// reaching make([]float64, n*n).
func TestBorderCodecRejectsWrappingHeader(t *testing.T) {
	if _, _, err := DecodeBorder(hugeHeader()); err == nil {
		t.Fatal("a header claiming 2^31 regions in 40 bytes decoded")
	}
}

// FuzzDecodeBorder: the disk tier hands DecodeBorder whatever a file holds,
// so any bytes must decode or error — never panic — and what decodes may
// not have allocated more than the buffer carried: 16 bytes a matrix
// cell, 8 a traversal word, 1 a node.
func FuzzDecodeBorder(f *testing.F) {
	_, r, bd := setup(f, 60, 70, 4, 3)
	var buf bytes.Buffer
	if err := EncodeBorder(&buf, bd, r.N); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hugeHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, n, err := DecodeBorder(data)
		if err != nil {
			return
		}
		words := 0
		if len(got.Traverse) > 0 {
			words = len(got.Traverse[0])
		}
		if held := 16*n*n + 8*n*n*words + len(got.CrossBorder); held > len(data) {
			t.Fatalf("%d-byte buffer decoded into %d bytes (n=%d words=%d nodes=%d)", len(data), held, n, words, len(got.CrossBorder))
		}
	})
}

// TestBorderCodecShapeValidation: encoding data whose shape contradicts the
// declared region count must error rather than persist garbage.
func TestBorderCodecShapeValidation(t *testing.T) {
	_, r, bd := setup(t, 120, 140, 4, 2)
	var buf bytes.Buffer
	if err := EncodeBorder(&buf, bd, r.N+1); err == nil {
		t.Error("wrong region count accepted")
	}
	trunc := *bd
	trunc.Traverse = bd.Traverse[:len(bd.Traverse)-1]
	if err := EncodeBorder(&buf, &trunc, r.N); err == nil {
		t.Error("short traversal array accepted")
	}
}

// borderBytes is the size EncodeBorder must produce for b over n regions,
// from the format's layout.
func borderBytes(b *BorderData, n int) int64 {
	words := regionWords(b, n)
	size := int64(borderHeaderLen)
	size += 2 * int64(n) * int64(n) * 8
	size += int64(n) * int64(n) * int64(words) * 8
	size += pad8b(int64(len(b.CrossBorder)))
	size += 8
	return size
}
