package packet

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestWriterFraming(t *testing.T) {
	w := NewWriter(KindData)
	w.Add(TagNode, []byte{1, 2, 3})
	w.Add(TagNode, bytes.Repeat([]byte{9}, 100))
	w.Add(TagNode, bytes.Repeat([]byte{8}, 100)) // must start packet 2
	pkts := w.Packets()
	if len(pkts) != 2 {
		t.Fatalf("%d packets, want 2", len(pkts))
	}
	for i, p := range pkts {
		if len(p.Payload) != PayloadSize {
			t.Fatalf("packet %d payload %d bytes, want %d", i, len(p.Payload), PayloadSize)
		}
		if p.Kind != KindData {
			t.Fatalf("packet %d kind %v", i, p.Kind)
		}
	}
	recs := records(pkts[0].Payload)
	if len(recs) != 2 || len(recs[0].Data) != 3 || len(recs[1].Data) != 100 {
		t.Fatalf("packet 0 records wrong: %d", len(recs))
	}
	recs = records(pkts[1].Payload)
	if len(recs) != 1 || recs[0].Data[0] != 8 {
		t.Fatalf("packet 1 records wrong")
	}
}

func TestWriterPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("oversized record", func() {
		NewWriter(KindData).Add(TagNode, make([]byte, MaxRecord+1))
	})
	expectPanic("reserved tag", func() {
		NewWriter(KindData).Add(TagEnd, []byte{1})
	})
}

func TestRecordsStopsAtPadding(t *testing.T) {
	payload := make([]byte, PayloadSize)
	payload[0] = TagNode
	payload[1] = 2 // length 2
	payload[3] = 0xAA
	payload[4] = 0xBB
	// rest is zero = padding
	recs := records(payload)
	if len(recs) != 1 || !bytes.Equal(recs[0].Data, []byte{0xAA, 0xBB}) {
		t.Fatalf("records %v", recs)
	}
}

func TestRecordsMalformedLength(t *testing.T) {
	payload := make([]byte, 8)
	payload[0] = TagNode
	payload[1] = 200 // longer than remaining
	if recs := records(payload); len(recs) != 0 {
		t.Fatalf("malformed record decoded: %v", recs)
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U16(1024)
	e.U32(1 << 30)
	e.F32(3.25)
	d := NewDec(e.Bytes())
	if d.U8() != 7 || d.U16() != 1024 || d.U32() != 1<<30 || d.F32() != 3.25 {
		t.Fatal("round trip mismatch")
	}
	if d.Err() || d.Remaining() != 0 {
		t.Fatal("decoder state wrong")
	}
}

func TestDecErrorSticky(t *testing.T) {
	d := NewDec([]byte{1})
	d.U32() // short read
	if !d.Err() {
		t.Fatal("short read not detected")
	}
	if d.U8() != 0 || d.Remaining() != 0 {
		t.Fatal("error-sticky behaviour wrong")
	}
}

func TestF32Quantization(t *testing.T) {
	var e Enc
	v := 1.23456789123
	e.F32(v)
	got := NewDec(e.Bytes()).F32()
	if got != float64(float32(v)) {
		t.Fatalf("F32 %v, want %v", got, float64(float32(v)))
	}
	if math.Abs(got-v) > 1e-6 {
		t.Fatalf("precision loss too large: %v", got-v)
	}
}

// TestFramingRoundTripProperty: arbitrary record sequences survive framing.
func TestFramingRoundTripProperty(t *testing.T) {
	f := func(blobs [][]byte) bool {
		w := NewWriter(KindAux)
		var want [][]byte
		for _, b := range blobs {
			if len(b) > MaxRecord {
				b = b[:MaxRecord]
			}
			w.Add(TagSPQTree, b)
			want = append(want, b)
		}
		var got [][]byte
		for _, p := range w.Packets() {
			for _, r := range records(p.Payload) {
				got = append(got, r.Data)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindPad: "pad", KindIndex: "index", KindData: "data", KindAux: "aux", Kind(9): "kind(9)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// iterPayload builds a representative sealed payload for iteration tests.
func iterPayload(tb testing.TB) []byte {
	tb.Helper()
	w := NewWriter(KindData)
	w.Add(TagNode, bytes.Repeat([]byte{1}, 30))
	w.Add(TagKDSplits, bytes.Repeat([]byte{2}, 40))
	w.Add(TagNRRow, bytes.Repeat([]byte{3}, 20))
	pkts := w.Packets()
	if len(pkts) != 1 {
		tb.Fatalf("%d packets, want 1", len(pkts))
	}
	return pkts[0].Payload
}

// records collects a payload's records over ForEachRecord (the views alias
// payload).
func records(payload []byte) []Record {
	var out []Record
	ForEachRecord(payload, func(tag uint8, data []byte) bool {
		out = append(out, Record{Tag: tag, Data: data})
		return true
	})
	return out
}

func TestForEachRecordMatchesRecords(t *testing.T) {
	payload := iterPayload(t)
	want := records(payload)
	var ranged []Record
	for rec := range All(payload) {
		ranged = append(ranged, rec)
	}
	if len(want) == 0 || len(ranged) != len(want) {
		t.Fatalf("ForEachRecord %d / range %d records", len(want), len(ranged))
	}
	for i := range want {
		if ranged[i].Tag != want[i].Tag || !bytes.Equal(ranged[i].Data, want[i].Data) {
			t.Errorf("range record %d = %+v, want %+v", i, ranged[i], want[i])
		}
	}
}

func TestForEachRecordEarlyStop(t *testing.T) {
	payload := iterPayload(t)
	calls := 0
	ForEachRecord(payload, func(tag uint8, data []byte) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("%d calls after early stop, want 1", calls)
	}
	for range All(payload) {
		break // must not panic or continue
	}
}

// TestForEachRecordZeroAlloc pins the record-iteration hot path at zero
// allocations per packet — the contract every client decode loop relies on.
func TestForEachRecordZeroAlloc(t *testing.T) {
	payload := iterPayload(t)
	sum := 0
	if n := testing.AllocsPerRun(100, func() {
		ForEachRecord(payload, func(tag uint8, data []byte) bool {
			sum += int(tag) + len(data)
			return true
		})
	}); n != 0 {
		t.Errorf("ForEachRecord allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for rec := range All(payload) {
			sum += int(rec.Tag) + len(rec.Data)
		}
	}); n != 0 {
		t.Errorf("range over All allocates %v per run, want 0", n)
	}
	_ = sum
}

// BenchmarkRecordIter compares the zero-allocation iterator against the
// allocating Records on the same sealed payload (`-benchmem` shows 0 B/op
// for the first two).
func BenchmarkRecordIter(b *testing.B) {
	payload := iterPayload(b)
	b.Run("ForEachRecord", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0
		for i := 0; i < b.N; i++ {
			ForEachRecord(payload, func(tag uint8, data []byte) bool {
				sum += len(data)
				return true
			})
		}
		_ = sum
	})
	b.Run("RangeAll", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0
		for i := 0; i < b.N; i++ {
			for rec := range All(payload) {
				sum += len(rec.Data)
			}
		}
		_ = sum
	})
}
