package metrics

import (
	"fmt"
	"math"
)

// Hist is the repo's one sample distribution: a mergeable fixed-layout
// histogram of non-negative samples plus their exact sum. Every Hist shares
// one global log-spaced bucket layout (histMin, histGamma), so histograms
// built independently — one per fleet worker, one per worker process, one
// behind a live /metrics series (obs.Histogram counts into the same layout)
// — merge by adding counts, and a quantile of the merged histogram equals
// the true whole-population quantile to within one bucket (a relative error
// of at most histGamma-1, about 8%). Sum makes the mean exact.
//
// The layout is part of the wire format (fleet workers JSON-encode Hist
// inside Result): changing histMin, histGamma or NumBuckets is a wire break
// and must bump fleet.ResultWireVersion.
//
// Fields are exported for JSON; use the methods to maintain them. The zero
// value is an empty histogram ready for Add.
type Hist struct {
	// Zero counts samples <= histMin (including exact zeros); they report
	// as 0 in quantiles.
	Zero int64 `json:",omitempty"`
	// Low is the layout index of Counts[0]: bucket i of this histogram is
	// global bucket Low+i, covering [BucketEdge(Low+i), BucketEdge(Low+i+1)).
	// Counts is trimmed to the populated window so a JSON-encoded Hist
	// stays small.
	Low    int     `json:",omitempty"`
	Counts []int64 `json:",omitempty"`
	// Sum is the exact sum of the samples, in the order they were added
	// (NaN and negative samples count as 0, like their bucket says).
	Sum float64 `json:",omitempty"`
}

const (
	// histMin is the lower edge of global bucket 0. Everything at or below
	// it (energy is bounded below by sleep power over one packet; packet
	// counts are integers) lands in the Zero bucket.
	histMin = 1e-9
	// histGamma is the bucket growth factor: each bucket spans 8% more
	// than the last, bounding quantile error at one bucket = 8% relative.
	histGamma = 1.08
	// NumBuckets caps the layout (histMin*histGamma^NumBuckets ≈ 2e12):
	// +Inf and overflow samples clamp into the last bucket rather than
	// growing Counts without bound.
	NumBuckets = 640
)

var invLogGamma = 1 / math.Log(histGamma)

// Bucket maps a sample to its global layout index, or -1 for the Zero
// bucket.
func Bucket(v float64) int {
	if !(v > histMin) { // catches NaN, negatives, zero
		return -1
	}
	i := int(math.Log(v/histMin) * invLogGamma)
	if i < 0 {
		i = 0
	}
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketEdge is the lower edge of global bucket i, which is the upper edge
// of bucket i-1.
func BucketEdge(i int) float64 {
	return histMin * math.Pow(histGamma, float64(i))
}

// bucketRep is the representative value reported for global bucket i: the
// geometric midpoint, within half a bucket of every sample in it.
func bucketRep(i int) float64 {
	return histMin * math.Pow(histGamma, float64(i)+0.5)
}

// Add records one sample.
func (h *Hist) Add(v float64) {
	if v > 0 {
		h.Sum += v
	}
	i := Bucket(v)
	if i < 0 {
		h.Zero++
		return
	}
	h.grow(i)
	h.Counts[i-h.Low]++
}

// grow widens the Counts window to include global bucket i.
func (h *Hist) grow(i int) {
	if len(h.Counts) == 0 {
		h.Low = i
		h.Counts = append(h.Counts, 0)
		return
	}
	if i < h.Low {
		pad := make([]int64, h.Low-i)
		h.Counts = append(pad, h.Counts...)
		h.Low = i
	}
	for i >= h.Low+len(h.Counts) {
		h.Counts = append(h.Counts, 0)
	}
}

// check rejects a histogram no sequence of Adds could have produced. A Hist
// decoded from a worker's JSON is bytes this process did not write: its
// window must lie inside the layout and no count may be negative, or a
// merge would allocate whatever Low says and N could go negative.
func (h *Hist) check() error {
	if h.Low < 0 || h.Low >= NumBuckets || len(h.Counts) > NumBuckets-h.Low {
		return fmt.Errorf("metrics: histogram window [%d,%d+%d) leaves the %d-bucket layout",
			h.Low, h.Low, len(h.Counts), NumBuckets)
	}
	if h.Zero < 0 || !(h.Sum >= 0) {
		return fmt.Errorf("metrics: histogram with zero count %d, sum %v", h.Zero, h.Sum)
	}
	for i, c := range h.Counts {
		if c < 0 {
			return fmt.Errorf("metrics: histogram bucket %d holds %d samples", h.Low+i, c)
		}
	}
	return nil
}

// Merge adds o's counts and sum into h, after checking o: it is the one
// way histograms combine, so nothing malformed gets past it.
func (h *Hist) Merge(o *Hist) error {
	if err := o.check(); err != nil {
		return err
	}
	h.Zero += o.Zero
	h.Sum += o.Sum
	if len(o.Counts) == 0 {
		return nil
	}
	h.grow(o.Low)
	h.grow(o.Low + len(o.Counts) - 1)
	for i, c := range o.Counts {
		h.Counts[o.Low+i-h.Low] += c
	}
	return nil
}

// N returns the total sample count.
func (h *Hist) N() int64 {
	n := h.Zero
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Mean returns the exact sample mean, or 0 for an empty histogram.
func (h *Hist) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return h.Sum / float64(n)
}

// Quantile returns the p-th percentile (p in [0,100]) as the representative
// value of the bucket holding the ⌈p/100·N⌉-th smallest sample, or 0 for an
// empty histogram: within one bucket of that sample, and so of any exact
// percentile taken between neighbouring samples that are themselves no more
// than a bucket apart.
func (h *Hist) Quantile(p float64) float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if rank <= h.Zero {
		return 0
	}
	cum := h.Zero
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			return bucketRep(h.Low + i)
		}
	}
	return bucketRep(h.Low + len(h.Counts) - 1)
}

// Quantiles is the tail summary a load report prints per metric.
type Quantiles struct {
	P50, P95, P99 float64
}

// Quantiles returns the p50/p95/p99 summary of the histogram.
func (h *Hist) Quantiles() Quantiles {
	return Quantiles{P50: h.Quantile(50), P95: h.Quantile(95), P99: h.Quantile(99)}
}

// SameBucket reports whether a and b fall in the same or adjacent layout
// buckets — the "within one bucket" equivalence a Hist quantile guarantees
// against the exact sample percentile.
func SameBucket(a, b float64) bool {
	d := Bucket(a) - Bucket(b)
	return d >= -1 && d <= 1
}
