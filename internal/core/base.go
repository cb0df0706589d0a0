package core

import (
	"fmt"
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/scheme"
)

// base is the server-side state EB and NR share. Their pre-computation is
// the same — the paper's Table 3 gives them one column because "they need
// to pre-compute the exact same shortest paths": a kd partition, its region
// structure and the border data — and so is all a build path has to know
// about either: how to wrap a cycle loaded back from disk (NewShared) and
// how to carry the server over to mutated arc weights (Lend, Rebuild). Only
// the index layout (assemble) and the client differ; those stay on EB and NR.
type base struct {
	name    string // "EB" or "NR": what Rebuild builds again
	opts    Options
	g       *graph.Graph
	kd      *partition.KDTree
	regions *precompute.Regions
	border  *precompute.BorderData
	cycle   *broadcast.Cycle
}

// NewShared returns the named method's server ("EB" or "NR") over an
// already computed partition, region structure and border data, so the two
// methods and their option variants pay for one pre-computation. A nil
// cycle is assembled. A non-nil one — decoded from an mmap'd disk-cache
// entry: the warm-restart path — is wrapped as it is; the caller vouches
// that it was assembled from exactly these inputs.
func NewShared(name string, g *graph.Graph, kd *partition.KDTree, regions *precompute.Regions, border *precompute.BorderData, opts Options, cycle *broadcast.Cycle) (scheme.Server, error) {
	b := base{name: name, opts: opts, g: g, kd: kd, regions: regions, border: border, cycle: cycle}
	switch name {
	case "EB":
		return newEB(b), nil
	case "NR":
		s, err := newNR(b)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("core: %q is not a method over shared pre-computation (EB, NR)", name)
}

// precomputeFor runs the shared pre-computation of a from-scratch build.
func precomputeFor(g *graph.Graph, n int) (*partition.KDTree, *precompute.Regions, *precompute.BorderData, error) {
	kd, err := partition.NewKDTree(g, n)
	if err != nil {
		return nil, nil, nil, err
	}
	regions := precompute.BuildRegions(g, kd)
	return kd, regions, precompute.Compute(g, regions), nil
}

// Lend returns what of this server's pre-computation still holds over g2:
// all of it when g2 is the server's own graph; the kd partition and region
// structure — functions of coordinates and topology only — but a nil border
// when g2 is a weight-only mutation of it (graph.WithWeights), so the storm
// reruns on the new weights; and an error otherwise, because a reused
// partition would silently describe the wrong network.
func (b *base) Lend(g2 *graph.Graph) (*partition.KDTree, *precompute.Regions, *precompute.BorderData, error) {
	if g2 == b.g {
		return b.kd, b.regions, b.border, nil
	}
	if !b.g.SameTopology(g2) {
		return nil, nil, nil, fmt.Errorf("rebuild requires an identical topology (weight-only mutation, e.g. graph.WithWeights)")
	}
	return b.kd, b.regions, nil, nil
}

// Name implements scheme.Server.
func (b *base) Name() string { return b.name }

// Cycle implements scheme.Server.
func (b *base) Cycle() *broadcast.Cycle { return b.cycle }

// PrecomputeTime implements scheme.Server: the border data records the
// storm the cycle embodies, also when both were loaded from disk.
func (b *base) PrecomputeTime() time.Duration { return b.border.Elapsed }

// Options returns the options the server was built with.
func (b *base) Options() Options { return b.opts }
