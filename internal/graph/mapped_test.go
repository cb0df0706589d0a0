package graph

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// randomGraph builds a connected random graph with deterministic structure.
func randomGraph(t *testing.T, n, extra int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, 2*(n-1+extra))
	for i := 0; i < n; i++ {
		b.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	for i := 1; i < n; i++ {
		b.AddEdge(NodeID(rng.Intn(i)), NodeID(i), 1+rng.Float64()*10)
	}
	for i := 0; i < extra; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v, 1+rng.Float64()*10)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// equalGraphs requires structural bit-identity between two graphs: same
// nodes, CSR arrays, and bounds.
func equalGraphs(t *testing.T, heap, mapped *Graph) {
	t.Helper()
	if !reflect.DeepEqual(heap.nodes, mapped.nodes) && !(len(heap.nodes) == 0 && len(mapped.nodes) == 0) {
		t.Fatal("node slices differ")
	}
	if !reflect.DeepEqual(heap.off, mapped.off) ||
		!reflect.DeepEqual(heap.dst, mapped.dst) ||
		!reflect.DeepEqual(heap.wgt, mapped.wgt) {
		t.Fatal("forward CSR differs")
	}
	if !reflect.DeepEqual(heap.roff, mapped.roff) ||
		!reflect.DeepEqual(heap.rdst, mapped.rdst) ||
		!reflect.DeepEqual(heap.rwgt, mapped.rwgt) {
		t.Fatal("reverse CSR differs")
	}
	hx0, hy0, hx1, hy1 := heap.Bounds()
	mx0, my0, mx1, my1 := mapped.Bounds()
	if hx0 != mx0 || hy0 != my0 || hx1 != mx1 || hy1 != my1 {
		t.Fatal("bounds differ")
	}
}

// TestMappedRoundTrip: WriteMapped → OpenMapped reproduces the graph
// bit-identically, through both the aliasing fast path (aligned buffer)
// and the portable decode path (misaligned buffer).
func TestMappedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, extra int
	}{{"small", 12, 5}, {"medium", 500, 300}, {"single", 2, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(t, tc.n, tc.extra, int64(tc.n))
			var buf bytes.Buffer
			if err := WriteMapped(&buf, g); err != nil {
				t.Fatal(err)
			}
			if int64(buf.Len()) != mappedBytes(g) {
				t.Fatalf("layout size %d, wrote %d", mappedBytes(g), buf.Len())
			}

			// Aligned buffer: may alias.
			aligned := make([]byte, buf.Len())
			copy(aligned, buf.Bytes())
			got, err := OpenMapped(aligned)
			if err != nil {
				t.Fatal(err)
			}
			equalGraphs(t, g, got)

			// Deliberately misaligned view: must fall back to decoding and
			// still come out identical.
			backing := make([]byte, buf.Len()+1)
			copy(backing[1:], buf.Bytes())
			got2, err := OpenMapped(backing[1:])
			if err != nil {
				t.Fatal(err)
			}
			equalGraphs(t, g, got2)
		})
	}
}

// TestMappedFile: the mmap path end to end — write to a file, MapFile it,
// verify equality and that queries work, then Close.
func TestMappedFile(t *testing.T) {
	g := randomGraph(t, 200, 120, 77)
	path := filepath.Join(t.TempDir(), "net.airm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMapped(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mg, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, g, mg.Graph)
	// Spot-check accessors against the heap original.
	for v := NodeID(0); int(v) < g.NumNodes(); v += 13 {
		hd, hw := g.Out(v)
		md, mw := mg.Out(v)
		if !reflect.DeepEqual(hd, md) || !reflect.DeepEqual(hw, mw) {
			t.Fatalf("Out(%d) differs", v)
		}
		if g.OutOffset(v) != mg.OutOffset(v) {
			t.Fatalf("OutOffset(%d) differs", v)
		}
	}
	if err := mg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMappedRejectsCorruption: damaged headers and sections must error,
// not alias garbage.
func TestOpenMappedRejectsCorruption(t *testing.T) {
	g := randomGraph(t, 50, 30, 3)
	var buf bytes.Buffer
	if err := WriteMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	damage := func(name string, mutate func([]byte)) {
		data := make([]byte, len(base))
		copy(data, base)
		mutate(data)
		if _, err := OpenMapped(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	damage("bad magic", func(d []byte) { d[0] = 'X' })
	damage("bad version", func(d []byte) { d[4] = 99 })
	damage("bad probe", func(d []byte) { d[24] ^= 0xFF })
	if _, err := OpenMapped(base[:len(base)/2]); err == nil {
		t.Error("truncated buffer accepted")
	}
	if _, err := OpenMapped(base[:10]); err == nil {
		t.Error("sub-header buffer accepted")
	}
	damage("out-of-range target", func(d []byte) {
		// First dst entry → absurd node id.
		n := int64(g.NumNodes())
		dstAt := int64(mappedHeader) + n*nodeRecBytes + pad8((n+1)*4)
		d[dstAt] = 0xFF
		d[dstAt+1] = 0xFF
		d[dstAt+2] = 0xFF
		d[dstAt+3] = 0x7F
	})
	damage("non-monotone offsets", func(d []byte) {
		n := int64(g.NumNodes())
		offAt := int64(mappedHeader) + n*nodeRecBytes
		d[offAt+4] = 0xEE // off[1] jumps past off[2]
		d[offAt+5] = 0xFF
	})
}

// TestMappedEmptyGraph round-trips the degenerate empty graph.
func TestMappedEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := OpenMapped(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumArcs() != 0 {
		t.Fatalf("empty graph decoded as %d nodes, %d arcs", got.NumNodes(), got.NumArcs())
	}
}

// TestMappedReadZeroAlloc pins the mapped-graph read path at zero
// allocations per operation: Out, In and Node on an OpenMapped graph are
// pure slice views into the mapping. The //air:noalloc annotations on those
// methods (checked by airvet) and this pin must agree; see
// internal/analysis/noallocpin.
func TestMappedReadZeroAlloc(t *testing.T) {
	g := randomGraph(t, 64, 64, 7)
	var buf bytes.Buffer
	if err := WriteMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	aligned := make([]byte, buf.Len())
	copy(aligned, buf.Bytes())
	mg, err := OpenMapped(aligned)
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for v := NodeID(0); int(v) < mg.NumNodes(); v++ {
			dst, wgt := mg.Out(v)
			for i := range dst {
				sink += wgt[i]
			}
			rdst, rwgt := mg.In(v)
			for i := range rdst {
				sink += rwgt[i]
			}
			sink += mg.Node(v).X
		}
	}); n != 0 {
		t.Errorf("mapped read path allocates %v per run, want 0", n)
	}
	_ = sink
}

// mappedBytes is the size WriteMapped must produce for g, from the format's
// layout.
func mappedBytes(g *Graph) int64 {
	n, m := int64(g.NumNodes()), int64(g.NumArcs())
	return mappedHeader +
		n*nodeRecBytes +
		2*pad8((n+1)*4) + // off, roff
		2*pad8(m*4) + // dst, rdst
		2*m*8 // wgt, rwgt
}
