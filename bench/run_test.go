package main

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro"
)

func names(defs ...[]metricDef) []string {
	var out []string
	for _, ds := range defs {
		for _, d := range ds {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

func emitted(m metrics) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics emitted, catalogue has %d:\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emitted %q where the catalogue has %q", what, got[i], want[i])
		}
	}
}

// Every workload answers every query correctly on a small network and
// emits exactly the catalogued metrics, none of them zero: the driver
// refuses a run that misses one.
func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	for i, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			rep, err := runWorkload(context.Background(), testOptions(t, sp.name, int64(100+i)))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != minRounds*sp.perRound {
				t.Fatalf("correct=%v failed=%d attempted=%d, want %d", rep.Correct, rep.Failed, rep.Attempted, minRounds*sp.perRound)
			}
			sameNames(t, "end to end", emitted(rep.EndToEnd), names(endToEndDefs))
			for _, d := range endToEndDefs {
				m := rep.EndToEnd[d.Name]
				if !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s = %v %q, want a positive value in %q", d.Name, m.Value, m.Unit, d.Unit)
				}
			}
			for _, r := range rep.Rounds {
				if r.P95Beyond < 10 {
					t.Errorf("a round's p95 has %d samples beyond it, want >= 10", r.P95Beyond)
				}
			}

			line, err := rep.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
				t.Errorf("contract line has keys %v", got)
			}
		})
	}
}

// A traced run emits the span and counter metrics, and the probes the rest
// of the per-layer catalogue.
func TestTracedRunEmitsThePerLayerCatalogue(t *testing.T) {
	for i, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			o := testOptions(t, sp.name, int64(200+i))
			o.trace = true
			rep, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.TraceFile == "" {
				t.Fatalf("correct=%v trace file %q", rep.Correct, rep.TraceFile)
			}
			sameNames(t, "spans and counters", emitted(rep.PerLayer), names(perLayerDefs))
			share := rep.PerLayer["feed.wait_share"].Value
			if sp.name == "offline_replay" && share > 0.5 {
				t.Errorf("offline feed wait share %.2f: the replayed channel never blocks", share)
			}
			if rep.PerLayer["station.dropped_packets"].Value != 0 {
				t.Errorf("a virtual-clock station dropped packets")
			}
		})
	}
}

func TestProbesEmitTheirCatalogue(t *testing.T) {
	o := testOptions(t, "offline_replay", 300)
	out := metrics{}
	if err := runProbes(context.Background(), o, out); err != nil {
		t.Fatal(err)
	}
	sameNames(t, "probes", emitted(out), names(probeDefs))
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

func TestVerifierRejectsWrongAnswers(t *testing.T) {
	g, err := loadNetwork(testScale)
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(7, g, 1, 8)
	q := in.blocks[0][0]
	v := &verifier{}
	v.use(g)
	v.prime(in.blocks[0])
	dist, path, _ := repro.ShortestPath(g, q.s, q.t)
	good := sample{q: q, dist: dist, path: path}
	if err := v.check(&good); err != nil {
		t.Fatalf("reference answer rejected: %v", err)
	}
	for name, bad := range map[string]sample{
		"distance off by 1%": {q: q, dist: dist * 1.01, path: path},
		"path cut short":     {q: q, dist: dist, path: path[:len(path)-1]},
		"no path":            {q: q, dist: dist},
		"unknown query":      {q: pair{q.t, q.s}, dist: dist, path: path},
	} {
		if v.check(&bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Blocks must be stratified the same way for every seed, distinct within a
// seed, and reproducible.
func TestInputsAreSeededAndStratified(t *testing.T) {
	g, err := loadNetwork(0.1)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := makeInputs(5, g, 3, 160), makeInputs(5, g, 3, 160), makeInputs(6, g, 3, 160)
	seen := map[pair]bool{}
	same, differs := true, false
	for i := range a.blocks {
		if len(a.blocks[i]) != 160 {
			t.Fatalf("block %d has %d queries", i, len(a.blocks[i]))
		}
		for j, q := range a.blocks[i] {
			if seen[q] || q.s == q.t {
				t.Fatalf("query %v repeats or is degenerate", q)
			}
			seen[q] = true
			same = same && b.blocks[i][j] == q
			differs = differs || c.blocks[i][j] != q
		}
	}
	if !same || !differs {
		t.Errorf("same seed reproduces: %v; another seed differs: %v", same, differs)
	}
	if a.lossSeed != b.lossSeed || a.tuneIn[0] != b.tuneIn[0] || a.batch(3)[2] != b.batch(3)[2] {
		t.Error("loss seed, tune-in or update batch not reproducible")
	}
}
