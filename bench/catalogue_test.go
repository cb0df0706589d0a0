package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated (go run . -manifest > ../BENCHMARK.json); a
// hand edit of either side shows up here.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
}

// The limits the benchmark driver enforces before a single run.
func TestCatalogueWithinDriverLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v breaks a naming limit", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	setup := false
	for _, d := range endToEndDefs {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	layers := append(append([]metricDef(nil), perLayerDefs...), probeDefs...)
	for _, d := range layers {
		check(d)
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(layers); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(specs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, sp := range specs {
		if !name.MatchString(sp.name) || len(sp.why) > 200 || seen[sp.name] {
			t.Errorf("workload %q breaks a limit (why is %d characters)", sp.name, len(sp.why))
		}
		seen[sp.name] = true
	}
}
