package precompute

import (
	"bytes"
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
