package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// verdict of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// exactOnReplay are the packet-count metrics that repeat bit for bit on
// offline_replay for one seed: the air, the loss pattern and the tune-in
// positions are all functions of the inputs.
var exactOnReplay = []string{"tuning_packets_mean", "access_latency_packets_mean", "client_peak_mem_bytes_mean"}

// comparison is one row of the before/after table.
type comparison struct {
	def     metricDef
	a, b    []float64 // every run's value, per side
	verdict string
}

// worsening is how far side b's median is worse than side a's, as a share
// of a's median (negative = better).
func (c *comparison) worsening() float64 {
	ma, mb := median(c.a), median(c.b)
	if c.def.Better == higher {
		return (ma - mb) / ma
	}
	return (mb - ma) / ma
}

// judge applies the benchmark's rule: a metric is worse when b's median is
// worse than a's by more than the bound. Where a's own run-to-run spread
// (quartile distance over median, known from four runs up) exceeds the
// bound, the comparison cannot resolve a change of that size: it is ok
// only if every run of b beats every run of a, worse only if every run of
// b loses to every run of a by more than the bound, unresolved otherwise.
func (c *comparison) judge() {
	over := c.worsening() > c.def.Bound
	if len(c.a) >= 4 && spread(c.a) > c.def.Bound {
		better := func(x, y float64) bool {
			if c.def.Better == higher {
				return x > y
			}
			return x < y
		}
		allBetter, allWorse := true, true
		for _, vb := range c.b {
			for _, va := range c.a {
				allBetter = allBetter && better(vb, va)
				allWorse = allWorse && better(va, vb)
			}
		}
		switch {
		case allBetter:
			c.verdict = verdictOK
		case allWorse && over:
			c.verdict = verdictWorse
		default:
			c.verdict = verdictUnresolved
		}
		return
	}
	c.verdict = verdictOK
	if over {
		c.verdict = verdictWorse
	}
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quantile(s, 0.25), quantile(s, 0.75)
	return (q3 - q1) / median(xs)
}

// quantile is the exclusive-method quantile Python's statistics.quantiles
// computes, so spreads agree with the driver's.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p * float64(n+1)
	j := int(pos)
	switch {
	case j < 1:
		return sorted[0]
	case j >= n:
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// settings describes what a side's runs of one workload measured: two
// sides are comparable only if these agree, because every document carries
// the same metric names whatever network, window or inputs produced them.
func settings(reps []*report) string {
	var runs []string
	for _, r := range reps {
		runs = append(runs, fmt.Sprintf("%s, %vs, seed %d", r.Network, r.Seconds, r.Seed))
	}
	sort.Strings(runs)
	return strings.Join(runs, "; ")
}

// compareReports prints the table for two sets of untraced reports. It
// returns an error when the sides did not measure the same thing (network,
// window length or seeds differ) or when anything got worse: a metric past
// its bound, or a rise in failed operations.
func compareReports(w io.Writer, a, b []*report) error {
	group := func(reps []*report) map[string][]*report {
		out := map[string][]*report{}
		for _, r := range reps {
			if !r.Traced {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	ga, gb := group(a), group(b)
	for _, sp := range specs {
		if ra, rb := ga[sp.name], gb[sp.name]; len(ra) > 0 && len(rb) > 0 && settings(ra) != settings(rb) {
			return fmt.Errorf("%s: the sides are not comparable: a ran [%s], b ran [%s]", sp.name, settings(ra), settings(rb))
		}
	}
	worse := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tverdict")
	for _, sp := range specs {
		ra, rb := ga[sp.name], gb[sp.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, def := range endToEndDefs {
			c := comparison{def: def}
			for _, r := range ra {
				c.a = append(c.a, r.EndToEnd[def.Name].Value)
			}
			for _, r := range rb {
				c.b = append(c.b, r.EndToEnd[def.Name].Value)
			}
			c.judge()
			worse = worse || c.verdict == verdictWorse
			ma, mb := median(c.a), median(c.b)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3fx of %.6g\t%.0f%%\t%s\n",
				sp.name, def.Name, ma, def.Unit, mb, def.Unit, mb/ma, ma, 100*def.Bound, c.verdict)
		}
		fa, fb := failRatio(ra), failRatio(rb)
		v := verdictOK
		if fb > fa {
			v, worse = verdictWorse, true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.6g\t%.6g\t\t0\t%s\n", sp.name, fa, fb, v)
	}
	tw.Flush()
	if worse {
		return errors.New("b is worse than a")
	}
	return nil
}

func failRatio(reps []*report) float64 {
	failed, attempted := 0, 0
	for _, r := range reps {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareFiles compares two -out documents.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readDoc(pathA)
	if err != nil {
		return err
	}
	b, err := readDoc(pathB)
	if err != nil {
		return err
	}
	if err := compareReports(w, a, b); err != nil {
		return fmt.Errorf("a = %s, b = %s: %w", pathA, pathB, err)
	}
	return nil
}

// selfCheck runs the untraced set twice with the same seed and compares
// the two: the same code must agree with itself within the benchmark's own
// bounds, and offline_replay's packet counts must repeat exactly.
func selfCheck(o options) error {
	o.trace = false
	var sets [2][]*report
	for i := range sets {
		reps, err := runAll(o)
		if err != nil {
			return err
		}
		sets[i] = reps
	}
	cmpErr := compareReports(os.Stdout, sets[0], sets[1])
	for i, ra := range sets[0] {
		if rb := sets[1][i]; ra.Workload == "offline_replay" {
			for _, name := range exactOnReplay {
				if va, vb := ra.EndToEnd[name].Value, rb.EndToEnd[name].Value; va != vb {
					return fmt.Errorf("offline_replay %s did not repeat: %v then %v", name, va, vb)
				}
			}
		}
	}
	if cmpErr != nil {
		return fmt.Errorf("selfcheck: two runs of the same code disagree: %w", cmpErr)
	}
	return nil
}
