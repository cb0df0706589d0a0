package netdata

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/packet"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g, err := netgen.Generate(150, 170, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]graph.NodeID, g.NumNodes())
	isBorder := make([]bool, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
		isBorder[i] = i%3 == 0
	}
	pkts := EncodeNodes(g, nodes, isBorder, nil)
	var mem metrics.Mem
	coll := NewCollector(g.NumNodes(), &mem)
	for i, p := range pkts {
		coll.Process(i, p)
	}
	if coll.Net.NumPresent() != g.NumNodes() {
		t.Fatalf("decoded %d of %d nodes", coll.Net.NumPresent(), g.NumNodes())
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if coll.IsBorder(v) != isBorder[v] {
			t.Fatalf("border flag of %d wrong", v)
		}
		if len(coll.Net.Arcs(v)) != g.OutDegree(v) {
			t.Fatalf("node %d: %d arcs, want %d", v, len(coll.Net.Arcs(v)), g.OutDegree(v))
		}
	}
	if mem.Peak() == 0 {
		t.Fatal("memory accounting silent")
	}
}

func TestCollectorDeduplicates(t *testing.T) {
	g, _ := netgen.Generate(100, 120, 2)
	nodes := []graph.NodeID{0, 1, 2}
	pkts := EncodeNodes(g, nodes, nil, nil)
	coll := NewCollector(g.NumNodes(), nil)
	coll.Process(0, pkts[0])
	before := len(coll.Net.Arcs(0))
	coll.Process(0, pkts[0]) // duplicate cycle position
	if len(coll.Net.Arcs(0)) != before {
		t.Fatal("duplicate packet doubled arcs")
	}
	if !coll.Processed(0) || coll.Processed(99) {
		t.Fatal("Processed tracking wrong")
	}
}

func TestCollectorRelease(t *testing.T) {
	g, _ := netgen.Generate(100, 120, 3)
	pkts := EncodeNodes(g, []graph.NodeID{5}, nil, nil)
	var mem metrics.Mem
	coll := NewCollector(g.NumNodes(), &mem)
	for i, p := range pkts {
		coll.Process(i, p)
	}
	peak := mem.Peak()
	if peak == 0 {
		t.Fatal("nothing allocated")
	}
	coll.Release(5)
	// Charging the same bytes again lands exactly on the old peak only if
	// the release discharged everything.
	mem.Alloc(peak)
	if mem.Peak() != peak {
		t.Fatalf("release left %d bytes accounted", mem.Peak()-peak)
	}
	coll.Release(5) // double release is a no-op
}

// TestCollectorRejectsTruncated: a node record shorter than its header, or
// than the arcs its header counts, adds nothing to the partial network.
func TestCollectorRejectsTruncated(t *testing.T) {
	w := packet.NewWriter(packet.KindData)
	w.Add(packet.TagNode, []byte{1, 2, 3})
	var e packet.Enc
	e.U32(7)
	e.F32(1)
	e.F32(2)
	e.U8(0)
	e.U8(2) // two arcs counted, one present
	e.U32(3)
	e.F32(1)
	w.Add(packet.TagNode, e.Bytes())
	coll := NewCollector(10, nil)
	for i, p := range w.Packets() {
		coll.Process(i, p)
	}
	if n := coll.Net.NumPresent(); n != 0 {
		t.Fatalf("truncated records added %d nodes", n)
	}
}

func TestHighDegreeChunking(t *testing.T) {
	// A star node with degree 40 must split across records and reassemble.
	b := graph.NewBuilder(41, 80)
	b.AddNode(0, 0)
	for i := 1; i <= 40; i++ {
		b.AddNode(float64(i), 0)
		b.AddArc(0, graph.NodeID(i), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pkts := EncodeNodes(g, []graph.NodeID{0}, nil, nil)
	coll := NewCollector(41, nil)
	for i, p := range pkts {
		coll.Process(i, p)
	}
	if got := len(coll.Net.Arcs(0)); got != 40 {
		t.Fatalf("reassembled %d arcs, want 40", got)
	}
	_ = packet.MaxRecord
}

// TestCountAndStreamMatchEncode pins the streamed-build primitives to the
// materializing encoder: CountNodes predicts the exact packet count and
// StreamNodes' concatenated batches equal EncodeNodes' output, for every
// batch size including ones smaller than a node's record run.
func TestCountAndStreamMatchEncode(t *testing.T) {
	g, err := netgen.Generate(300, 340, 9)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]graph.NodeID, g.NumNodes())
	border := make([]bool, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
		border[i] = i%7 == 0
	}
	want := EncodeNodes(g, nodes, border, nil)
	if got := CountNodes(g, nodes, border, nil); got != len(want) {
		t.Fatalf("CountNodes = %d, EncodeNodes produced %d", got, len(want))
	}
	for _, batch := range []int{1, 2, 7, 1024} {
		var streamed []packet.Packet
		err := StreamNodes(g, nodes, border, nil, batch, func(b []packet.Packet) error {
			streamed = append(streamed, b...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(want) {
			t.Fatalf("batch %d: streamed %d packets, want %d", batch, len(streamed), len(want))
		}
		for i := range want {
			if string(streamed[i].Payload) != string(want[i].Payload) || streamed[i].Kind != want[i].Kind {
				t.Fatalf("batch %d: packet %d differs", batch, i)
			}
		}
	}
}
