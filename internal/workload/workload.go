// Package workload generates the query workloads of the paper's Section 7:
// random source/destination pairs (400 per experiment), bucketed by
// shortest-path length into four ranges spanning the network diameter
// (Figure 10's x-axis).
package workload

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// Query is one workload entry with its reference answer.
type Query struct {
	scheme.Query
	// RefDist is the true shortest-path distance, computed server-side for
	// bucketing and verification.
	RefDist float64
	// Bucket is the path-length bucket index in [0, Buckets).
	Bucket int
	// TuneIn is the cycle position at which the query is posed.
	TuneIn int
}

// SameDist reports whether an answered distance is its reference: equal, or
// within 2⁻²³ relative, twice the float32 rounding of the on-air weights
// (DESIGN.md §7). NaN never matches, and infinities match only exactly
// (both sides found the pair unreachable).
func SameDist(got, want float64) bool {
	return got == want || !math.IsInf(want, 0) && math.Abs(got-want) <= 0x1p-23*want
}

// Buckets is the number of path-length classes (Figure 10 uses four).
const Buckets = 4

// Workload is a set of queries over one network.
type Workload struct {
	Queries  []Query
	Diameter float64
}

// Generate draws n random distinct-endpoint queries, computes reference
// distances, and buckets them by length relative to the (double-sweep
// estimated) diameter. TuneIn positions are uniform in [0, cycleLen).
func Generate(g *graph.Graph, n int, cycleLen int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	diam := g.Diameter(spath.Distances)
	w := &Workload{Diameter: diam}
	for len(w.Queries) < n {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		t := graph.NodeID(rng.Intn(g.NumNodes()))
		if s == t {
			continue
		}
		d, _, _ := spath.PointToPoint(g, s, t)
		b := int(d / diam * Buckets)
		if b >= Buckets {
			b = Buckets - 1
		}
		w.Queries = append(w.Queries, Query{
			Query:   scheme.QueryFor(g, s, t),
			RefDist: d,
			Bucket:  b,
			TuneIn:  rng.Intn(max(cycleLen, 1)),
		})
	}
	return w
}

// BucketLabel renders the Figure 10 x-axis label for bucket b, in units of
// the diameter (e.g. "0-3.5" thousands in the paper's Germany network).
func (w *Workload) BucketLabel(b int) [2]float64 {
	step := w.Diameter / Buckets
	return [2]float64{float64(b) * step, float64(b+1) * step}
}
