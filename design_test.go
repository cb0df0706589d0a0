package repro_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro"
)

// TestDesignMetricTableIsTheRegisteredSet holds DESIGN.md §10's metric table
// to the code: every series the process registers is a row of the table, and
// every unlabeled row is registered (importing repro links every
// instrumented package, and package-level instruments register at init). A
// labeled row — `name{label="k"}` — registers per label value on first use,
// so it only has to be known, not present.
func TestDesignMetricTableIsTheRegisteredSet(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 10. Observability\n")
	if !ok {
		t.Fatal("DESIGN.md has no §10")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, table, ok := strings.Cut(section, "| series | kind | layer |\n|---|---|---|\n")
	if !ok {
		t.Fatal("§10 has no metric table")
	}
	table, _, _ = strings.Cut(table, "\n\n")

	series := regexp.MustCompile("`(air_[a-z_]*)(?:\\{([a-z_,]+)\\}([a-z_]*))?(\\{[a-z]+=\"[a-z]+\"\\})?`")
	documented := map[string]bool{} // name → labeled
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 2 {
			t.Fatalf("not a table row: %q", row)
		}
		for _, m := range series.FindAllStringSubmatch(cells[1], -1) {
			labeled := m[4] != ""
			if m[2] == "" {
				documented[m[1]] = labeled
				continue
			}
			for _, alt := range strings.Split(m[2], ",") { // air_x_{a,b}_total
				documented[m[1]+alt+m[3]] = labeled
			}
		}
	}

	registered := map[string]bool{}
	for _, p := range repro.Observe() {
		registered[p.Name] = true
	}
	var undocumented, unregistered []string
	for name := range registered {
		if _, ok := documented[name]; !ok {
			undocumented = append(undocumented, name)
		}
	}
	for name, labeled := range documented {
		if !labeled && !registered[name] {
			unregistered = append(unregistered, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("%d registered series missing from the DESIGN.md §10 table:\n  %s",
			len(undocumented), strings.Join(undocumented, "\n  "))
	}
	if len(unregistered) > 0 {
		t.Errorf("%d series in the DESIGN.md §10 table that nothing registers:\n  %s",
			len(unregistered), strings.Join(unregistered, "\n  "))
	}
}
