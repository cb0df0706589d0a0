package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// pkgDir is one directory of the module holding non-test Go code: its
// package clause and the module's own packages it imports, as directories
// ("." is package repro).
type pkgDir struct {
	name    string
	imports []string
}

// modulePackages reads the package clause and import specs of every
// non-test Go file in the tree. bench/ is a nested module, but it imports
// this one by path, so it is walked like any other directory; testdata
// and dot directories are not code.
func modulePackages(t *testing.T) map[string]pkgDir {
	t.Helper()
	pkgs := map[string]pkgDir{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		p := pkgs[dir]
		p.name = f.Name.Name
		for _, spec := range f.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			if imp == "repro" {
				p.imports = append(p.imports, ".")
			} else if rest, ok := strings.CutPrefix(imp, "repro/"); ok {
				p.imports = append(p.imports, rest)
			}
		}
		pkgs[dir] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestEveryInternalPackageIsReachable keeps code that nothing runs out of
// the tree: following non-test imports from the facade (package repro),
// every binary (package main — cmd/*, the in-tree tools, bench/'s driver),
// every internal/ package is reached. A package that only tests import is
// listed below with its reason; an entry that is reachable, or names no
// package, fails too, so the list cannot outlive its reasons.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	testSupport := map[string]string{
		"internal/conformance":           "shared correctness harness; imported from _test.go files only",
		"internal/analysis/analysistest": "analyzer fixture runner; imported from _test.go files only",
	}

	pkgs := modulePackages(t)
	reached := map[string]bool{}
	var queue []string
	for dir, p := range pkgs {
		if dir == "." || p.name == "main" {
			reached[dir] = true
			queue = append(queue, dir)
		}
	}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, imp := range pkgs[dir].imports {
			if !reached[imp] {
				reached[imp] = true
				queue = append(queue, imp)
			}
		}
	}

	var unreachable []string
	for dir := range pkgs {
		if strings.HasPrefix(dir, "internal/") && !reached[dir] && testSupport[dir] == "" {
			unreachable = append(unreachable, dir)
		}
	}
	sort.Strings(unreachable)
	if len(unreachable) > 0 {
		t.Errorf("no binary, facade symbol or bench/ probe reaches (delete it, or give it a caller):\n  %s",
			strings.Join(unreachable, "\n  "))
	}
	for dir, reason := range testSupport {
		if _, ok := pkgs[dir]; !ok {
			t.Errorf("exception %s (%s) names no package with non-test code", dir, reason)
		} else if reached[dir] {
			t.Errorf("exception %s (%s) is stale: non-test code reaches it", dir, reason)
		}
	}
}

// TestDesignLayeringIsThePackageList holds DESIGN.md §1's layering block to
// the tree: every row names a package under internal/ (`x/*` names the
// packages below internal/x), and every internal/ package with non-test
// code has a row.
func TestDesignLayeringIsThePackageList(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), "\n## 1. Layering\n\n```\n")
	if !ok {
		t.Fatal("DESIGN.md has no §1 layering block")
	}
	block, _, _ = strings.Cut(block, "\n```")

	var internal []string
	for dir := range modulePackages(t) {
		if rest, ok := strings.CutPrefix(dir, "internal/"); ok {
			internal = append(internal, rest)
		}
	}
	sort.Strings(internal)

	covered := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		row, _, _ := strings.Cut(line, " ")
		parent, wild := strings.CutSuffix(row, "/*")
		found := false
		for _, pkg := range internal {
			if pkg == row || wild && strings.HasPrefix(pkg, parent+"/") {
				covered[pkg], found = true, true
			}
		}
		if !found {
			t.Errorf("§1 row %q names no package under internal/", row)
		}
	}
	missing := slices.DeleteFunc(internal, func(pkg string) bool { return covered[pkg] })
	if len(missing) > 0 {
		t.Errorf("%d internal/ packages have no row in DESIGN.md §1:\n  %s", len(missing), strings.Join(missing, "\n  "))
	}
}

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
