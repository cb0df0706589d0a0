// Package obs is a stub of the repo's internal/obs registration surface,
// just enough for the obsdiscipline fixtures to typecheck. The analyzer
// matches registration calls by function name within any package whose
// import path ends in "obs", so this stub binds exactly like the real one.
// (The stub itself is exempt: the analyzer skips the obs package.)
package obs

type Counter struct{ n uint64 }

func (c *Counter) Inc() { c.n++ }

type Gauge struct{ v float64 }

func (g *Gauge) Add(d float64) { g.v += d }

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }

func GetCounter(name, help string, labels ...string) *Counter { return &Counter{} }

func GetGauge(name, help string, labels ...string) *Gauge { return &Gauge{} }

func GetHistogram(name, help string, labels ...string) *Histogram { return &Histogram{} }
