package graph_test

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/netgen"
)

// FuzzOpenMapped: OpenMapped reads AIRM buffers it did not write — a mapped
// file on disk, a diskcache payload. Any input gives an error, or a graph
// whose forward and reverse CSR pass checkCSR and whose every node, out-arc
// and in-arc can be read; never a panic. The buffer is opened both 8-aligned
// (the sections alias it) and misaligned (the sections are decoded).
func FuzzOpenMapped(f *testing.F) {
	// A four-node network: the minimizer's work grows with the square of an
	// input's length, so a preset of even 16 nodes (1.3 KB) spends a 15 s
	// smoke minimizing instead of fuzzing.
	net, err := netgen.Preset{Name: "tiny", Nodes: 4, Edges: 3}.Generate(1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteMapped(&buf, net); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, n := range []int{len(valid) - 1, len(valid) / 2, 65, 64, 63, 8, 0} {
		f.Add(valid[:n])
	}
	// One flipped bit in each header field and in each section: node IDs,
	// forward offsets and targets, and the reverse CSR's tail.
	for _, at := range []int{5, 8, 16, 24, 33, 64, 64 + 24*net.NumNodes() + 4, len(valid) - 9*net.NumArcs(), len(valid) - 1} {
		flipped := bytes.Clone(valid)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		backing := make([]uint64, len(data)/8+2)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), 8*len(backing))
		for _, view := range [][]byte{aligned[:len(data)], aligned[1 : 1+len(data)]} {
			copy(view, data)
			g, err := graph.OpenMapped(view)
			if err != nil {
				continue
			}
			n, m := int64(g.NumNodes()), int64(g.NumArcs())
			for _, reverse := range []bool{false, true} {
				off, dst, wgt := g.CSR(reverse)
				if err := graph.CheckCSR(off, dst, n, m); err != nil {
					t.Fatalf("accepted graph (reverse=%v): %v", reverse, err)
				}
				if int64(len(wgt)) != m {
					t.Fatalf("accepted graph (reverse=%v): %d weights for %d arcs", reverse, len(wgt), m)
				}
			}
			for v := graph.NodeID(0); int64(v) < n; v++ {
				if g.Node(v).ID != v {
					t.Fatalf("node %d carries ID %d", v, g.Node(v).ID)
				}
				out, _ := g.Out(v)
				in, _ := g.In(v)
				for _, arcs := range [][]graph.NodeID{out, in} {
					for _, u := range arcs {
						_ = g.Node(u)
					}
				}
			}
		}
	})
}
