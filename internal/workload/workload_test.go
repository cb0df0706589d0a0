package workload

import (
	"math"
	"testing"

	"repro/internal/netgen"
)

func TestGenerateBucketsAndDeterminism(t *testing.T) {
	g, err := netgen.Generate(400, 450, 3)
	if err != nil {
		t.Fatal(err)
	}
	w1 := Generate(g, 100, 500, 7)
	w2 := Generate(g, 100, 500, 7)
	if len(w1.Queries) != 100 {
		t.Fatalf("%d queries", len(w1.Queries))
	}
	for i := range w1.Queries {
		if w1.Queries[i] != w2.Queries[i] {
			t.Fatal("same seed diverged")
		}
	}
	for i, q := range w1.Queries {
		if q.S == q.T {
			t.Fatalf("query %d has equal endpoints", i)
		}
		if q.Bucket < 0 || q.Bucket >= Buckets {
			t.Fatalf("query %d bucket %d", i, q.Bucket)
		}
		if q.TuneIn < 0 || q.TuneIn >= 500 {
			t.Fatalf("query %d tune-in %d", i, q.TuneIn)
		}
		if q.RefDist <= 0 {
			t.Fatalf("query %d ref dist %v", i, q.RefDist)
		}
		lo := w1.BucketLabel(q.Bucket)
		if q.RefDist < lo[0]-1e-9 || q.RefDist > lo[1]+w1.Diameter {
			t.Fatalf("query %d dist %v outside bucket %v", i, q.RefDist, lo)
		}
	}
}

func TestBucketLabelsSpanDiameter(t *testing.T) {
	g, _ := netgen.Generate(200, 230, 4)
	w := Generate(g, 10, 100, 1)
	last := w.BucketLabel(Buckets - 1)
	if last[1] < w.Diameter*0.99 {
		t.Errorf("buckets end at %v, diameter %v", last[1], w.Diameter)
	}
}

// TestSameDist pins the one answer check every harness shares: within 1e-3
// of 1+want passes, and nothing that is not a number ever verifies — the
// pasted `rel > 1e-3 || rel < -1e-3` forms it replaced accepted NaN.
func TestSameDist(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name      string
		got, want float64
		ok        bool
	}{
		{"exact", 1234.5, 1234.5, true},
		{"zero", 0, 0, true},
		{"just inside above", 1000 + 1e-3*1001*0.999, 1000, true},
		{"just inside below", 1000 - 1e-3*1001*0.999, 1000, true},
		{"just outside above", 1000 + 1e-3*1001*1.001, 1000, false},
		{"just outside below", 1000 - 1e-3*1001*1.001, 1000, false},
		{"NaN answer", math.NaN(), 1000, false},
		{"NaN reference", 1000, math.NaN(), false},
		{"+Inf answer", inf, 1000, false},
		{"-Inf answer", -inf, 1000, false},
		{"+Inf reference", 1000, inf, false},
		{"both unreachable", inf, inf, true},
		{"opposite infinities", -inf, inf, false},
	} {
		if got := SameDist(c.got, c.want); got != c.ok {
			t.Errorf("%s: SameDist(%v, %v) = %v, want %v", c.name, c.got, c.want, got, c.ok)
		}
	}
}
