package graph

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 6)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(0, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := triangle(t)
	if g.NumNodes() != 3 || g.NumArcs() != 6 {
		t.Fatalf("got %d nodes, %d arcs", g.NumNodes(), g.NumArcs())
	}
	dst, wgt := g.Out(0)
	if len(dst) != 2 {
		t.Fatalf("node 0 out-degree %d, want 2", len(dst))
	}
	// Adjacency sorted by target.
	if dst[0] != 1 || dst[1] != 2 {
		t.Errorf("out(0) = %v, want [1 2]", dst)
	}
	if wgt[0] != 1 || wgt[1] != 3 {
		t.Errorf("weights(0) = %v", wgt)
	}
	in, _ := g.In(0)
	if len(in) != 2 {
		t.Errorf("in-degree(0) = %d, want 2", len(in))
	}
	if g.OutDegree(1) != 2 || g.InDegree(2) != 2 {
		t.Error("degree accessors wrong")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []func(*Builder){
		func(b *Builder) { b.AddArc(0, 5, 1) },           // out of range
		func(b *Builder) { b.AddArc(0, 0, 1) },           // self loop
		func(b *Builder) { b.AddArc(0, 1, -1) },          // negative
		func(b *Builder) { b.AddArc(0, 1, math.NaN()) },  // NaN
		func(b *Builder) { b.AddArc(0, 1, math.Inf(1)) }, // Inf
		func(b *Builder) { b.AddArc(-1, 1, 1) },          // negative id
	}
	for i, corrupt := range cases {
		b := NewBuilder(2, 1)
		b.AddNode(0, 0)
		b.AddNode(1, 1)
		corrupt(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestArcWeight(t *testing.T) {
	g := triangle(t)
	if w, ok := g.ArcWeight(0, 1); !ok || w != 1 {
		t.Errorf("ArcWeight(0,1) = %v, %v", w, ok)
	}
	if _, ok := g.ArcWeight(0, 0); ok {
		t.Error("ArcWeight(0,0) should not exist")
	}
}

func TestBounds(t *testing.T) {
	g := triangle(t)
	minX, minY, maxX, maxY := g.Bounds()
	if minX != 0 || minY != 0 || maxX != 1 || maxY != 1 {
		t.Errorf("bounds (%v,%v,%v,%v)", minX, minY, maxX, maxY)
	}
}

func TestStronglyConnected(t *testing.T) {
	g := triangle(t)
	if err := g.CheckStronglyConnected(); err != nil {
		t.Errorf("triangle should be strongly connected: %v", err)
	}
	b := NewBuilder(3, 2)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(2, 0)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 0, 1)
	// node 2 isolated
	g2 := b.MustBuild()
	if err := g2.CheckStronglyConnected(); err == nil {
		t.Error("expected disconnection error")
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestTextCodecRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := EncodeText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := DecodeText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestTextCodecErrors(t *testing.T) {
	cases := []string{
		"v 1 0 0",        // out-of-order id
		"v 0 x 0",        // bad coordinate
		"a 0 1",          // short arc line
		"z what is this", // unknown record
	}
	for _, c := range cases {
		if _, err := DecodeText(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
	// Comments and blanks are fine.
	ok := "# comment\n\nn 1 0\nv 0 1 2\n"
	if _, err := DecodeText(strings.NewReader(ok)); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPE            "))); err == nil {
		t.Error("expected magic error")
	}
}

// TestDecodeLyingHeader is the 16-byte file a fuzz run found: a valid header
// that promises 0xF0000000 arcs and carries none. The header counts are a
// size hint, so decoding ends at the first missing record with an error; a
// builder sized from that header is a ≈ 64 GB request the runtime dies on.
func TestDecodeLyingHeader(t *testing.T) {
	file := []byte("AIRG\x01\x00\x00\x00" + "\x00\x00\x00\x00" + "\x00\x00\x00\xf0")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "graph: reading arc 0: unexpected EOF" {
		t.Fatalf("Decode = %v, want graph: reading arc 0: unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("Decode of a 16-byte file allocated %d bytes", got)
	}

	// A truncated honest file ends the same way, mid-record or between two.
	var buf bytes.Buffer
	if err := Encode(&buf, triangle(t)); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{16, 9} {
		_, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()-cut]))
		if err == nil || err.Error() != "graph: reading arc 5: unexpected EOF" {
			t.Errorf("cut %d: Decode = %v, want graph: reading arc 5: unexpected EOF", cut, err)
		}
	}
}

// FuzzGraphDecode pins the binary network codec against hostile files:
// Decode returns an error or a graph whose encoding decodes back to the same
// bytes — never a panic, never an allocation sized by the header alone.
func FuzzGraphDecode(f *testing.F) {
	b := NewBuilder(4, 8)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), float64(i*i))
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2.5)
	b.AddEdge(2, 3, 0)
	b.AddArc(3, 0, 7)
	var valid bytes.Buffer
	if err := Encode(&valid, b.MustBuild()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-7])
	f.Add(valid.Bytes()[:16])
	f.Add([]byte("AIRG\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, file []byte) {
		g, err := Decode(bytes.NewReader(file))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := Encode(&once, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Decode(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an accepted graph: %v", err)
		}
		if err := Encode(&twice, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("accepted graph does not round-trip: %x != %x", once.Bytes(), twice.Bytes())
		}
	})
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumArcs() != b.NumArcs() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d arcs",
			a.NumNodes(), b.NumNodes(), a.NumArcs(), b.NumArcs())
	}
	for v := NodeID(0); int(v) < a.NumNodes(); v++ {
		na, nb := a.Node(v), b.Node(v)
		if na.X != nb.X || na.Y != nb.Y {
			t.Fatalf("node %d coords differ", v)
		}
		da, wa := a.Out(v)
		db, wb := b.Out(v)
		if len(da) != len(db) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range da {
			if da[i] != db[i] || wa[i] != wb[i] {
				t.Fatalf("node %d arc %d differs", v, i)
			}
		}
	}
}

// TestCodecRoundTripProperty: random graphs survive a binary round trip.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		b := NewBuilder(n, 3*n)
		for i := 0; i < n; i++ {
			b.AddNode(r.Float64()*100, r.Float64()*100)
		}
		for e := 0; e < 2*n; e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddArc(NodeID(u), NodeID(v), r.Float64()*10)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Encode(&buf, g); err != nil {
			return false
		}
		g2, err := Decode(&buf)
		if err != nil {
			return false
		}
		return g2.NumNodes() == g.NumNodes() && g2.NumArcs() == g.NumArcs()
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
