package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/precompute"
	"repro/internal/scheme"
)

// mutateWeights scales n random arc weights of g by factors in [0.5, 2).
func mutateWeights(t *testing.T, g *graph.Graph, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ups := make([]graph.WeightUpdate, 0, n)
	for i := 0; i < n; i++ {
		from, to, w := g.ArcAt(rng.Intn(g.NumArcs()))
		ups = append(ups, graph.WeightUpdate{From: from, To: to, Weight: w * (0.5 + 1.5*rng.Float64())})
	}
	g2, err := g.WithWeights(ups)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// Rebuild builds a new server of the same method and options over g2, the
// same road network with mutated arc weights — the walk build.Reweigh
// takes, without its caches: what Lend vouches for is reused, the border
// pre-computation reruns across all cores, and the cycle is assembled as a
// fresh build would — byte-identical to NewEB/NewNR(g2).
func (b *base) Rebuild(g2 *graph.Graph) (scheme.Server, error) {
	kd, regions, border, err := b.Lend(g2)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", b.name, err)
	}
	if border == nil {
		border = precompute.Compute(g2, regions)
	}
	return NewShared(b.name, g2, kd, regions, border, b.opts, nil)
}

// assertCyclesEqual compares two cycles packet by packet, byte for byte.
func assertCyclesEqual(t *testing.T, a, b *broadcast.Cycle, what string) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: cycle lengths %d vs %d", what, a.Len(), b.Len())
	}
	for i := range a.Packets {
		pa, pb := a.Packets[i], b.Packets[i]
		if pa.Kind != pb.Kind || pa.NextIndex != pb.NextIndex || !bytes.Equal(pa.Payload, pb.Payload) {
			t.Fatalf("%s: packet %d differs (kind %v/%v nextIndex %d/%d)",
				what, i, pa.Kind, pb.Kind, pa.NextIndex, pb.NextIndex)
		}
	}
}

// TestRebuildMatchesFreshBuild pins the rebuild entry points: rebuilding a
// server over mutated weights must produce the exact cycle a from-scratch
// build on the mutated network produces — the partition reuse is a pure
// optimization.
func TestRebuildMatchesFreshBuild(t *testing.T) {
	g := testNetwork(t, 500, 750, 11)
	g2 := mutateWeights(t, g, 40, 12)
	opts := Options{Regions: 8, Segments: true, SquareCells: true}

	nr, err := NewNR(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	nr2, err := nr.Rebuild(g2)
	if err != nil {
		t.Fatal(err)
	}
	nrFresh, err := NewNR(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertCyclesEqual(t, nr2.Cycle(), nrFresh.Cycle(), "NR")

	eb, err := NewEB(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	eb2, err := eb.Rebuild(g2)
	if err != nil {
		t.Fatal(err)
	}
	ebFresh, err := NewEB(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertCyclesEqual(t, eb2.Cycle(), ebFresh.Cycle(), "EB")
}

// TestRebuildAnswersMutatedNetwork runs on-air queries against a rebuilt
// cycle and verifies them against a fresh Dijkstra on the mutated network.
func TestRebuildAnswersMutatedNetwork(t *testing.T) {
	g := testNetwork(t, 400, 600, 13)
	g2 := mutateWeights(t, g, 60, 14)
	nr, err := NewNR(g, Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	nr2, err := nr.Rebuild(g2)
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, g2, nr2, 0.1, 20, 15)

	eb, err := NewEB(g, Options{Regions: 8, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	eb2, err := eb.Rebuild(g2)
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, g2, eb2, 0.1, 20, 16)
}

// TestRebuildRejectsTopologyChange: a rebuild is weight-only by contract.
func TestRebuildRejectsTopologyChange(t *testing.T) {
	g := testNetwork(t, 300, 450, 17)
	other := testNetwork(t, 320, 480, 18)
	nr, err := NewNR(g, Options{Regions: 4, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nr.Rebuild(other); err == nil {
		t.Fatal("NR rebuild accepted a different topology")
	}
	eb, err := NewEB(g, Options{Regions: 4, Segments: true, SquareCells: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eb.Rebuild(other); err == nil {
		t.Fatal("EB rebuild accepted a different topology")
	}
}
