package metrics

import "sort"

// Series is the sort-based reference Hist is measured against: it keeps
// every raw sample and answers percentiles exactly. It was the fleet's
// distribution type before Hist replaced it and lives on here so the
// "within one bucket" and "exact mean" claims have something to be compared
// with.
type Series struct {
	vals   []float64
	sorted bool
}

// Add records one sample.
func (s *Series) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Merge folds another series into s.
func (s *Series) Merge(o *Series) {
	if o == nil || len(o.vals) == 0 {
		return
	}
	s.vals = append(s.vals, o.vals...)
	s.sorted = false
}

// N returns the number of samples.
func (s *Series) N() int { return len(s.vals) }

// Mean returns the sample mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Percentile returns the p-th percentile (p in [0, 100]) by linear
// interpolation between closest ranks, or 0 for an empty series.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.vals[n-1]
	}
	return s.vals[lo] + frac*(s.vals[lo+1]-s.vals[lo])
}

// Quantiles returns the p50/p95/p99 summary of the series.
func (s *Series) Quantiles() Quantiles {
	return Quantiles{P50: s.Percentile(50), P95: s.Percentile(95), P99: s.Percentile(99)}
}
