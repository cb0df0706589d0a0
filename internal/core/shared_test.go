package core

import (
	"bytes"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/precompute"
)

func sameCycle(t *testing.T, want, got *broadcast.Cycle) {
	t.Helper()
	if got.Version != want.Version {
		t.Fatalf("version %d, want %d", got.Version, want.Version)
	}
	if got.Len() != want.Len() {
		t.Fatalf("cycle length %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Packets {
		w, g := want.Packets[i], got.Packets[i]
		if g.Kind != w.Kind || g.NextIndex != w.NextIndex || g.Version != w.Version {
			t.Fatalf("packet %d header differs: got %v/%d/%d, want %v/%d/%d",
				i, g.Kind, g.NextIndex, g.Version, w.Kind, w.NextIndex, w.Version)
		}
		if !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("packet %d payload differs", i)
		}
	}
	if len(got.Sections) != len(want.Sections) {
		t.Fatalf("%d sections, want %d", len(got.Sections), len(want.Sections))
	}
	for i := range want.Sections {
		if got.Sections[i] != want.Sections[i] {
			t.Fatalf("section %d = %+v, want %+v", i, got.Sections[i], want.Sections[i])
		}
	}
}

// TestNewSharedWrapsCycle: a server rebuilt around a decoded cycle answers
// queries exactly like the server that assembled it.
func TestNewSharedWrapsCycle(t *testing.T) {
	g, err := netgen.Generate(400, 460, 12)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Regions: 4, Segments: true, SquareCells: true}
	kd, err := partition.NewKDTree(g, opts.Regions)
	if err != nil {
		t.Fatal(err)
	}
	regions := precompute.BuildRegions(g, kd)
	border := precompute.Compute(g, regions)
	cold := NewEBShared(g, kd, regions, border, opts)

	var buf bytes.Buffer
	if err := broadcast.EncodeCycle(&buf, cold.Cycle()); err != nil {
		t.Fatal(err)
	}
	cyc, err := broadcast.DecodeCycle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewShared("EB", g, kd, regions, border, opts, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycle() != cyc {
		t.Fatal("the loaded cycle was re-assembled, not wrapped")
	}
	sameCycle(t, cold.Cycle(), warm.Cycle())
	if warm.PrecomputeTime() != border.Elapsed {
		t.Fatalf("warm server precompute time %v, want %v", warm.PrecomputeTime(), border.Elapsed)
	}
}
