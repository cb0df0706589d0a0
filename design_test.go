package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/analysis/load"
)

// pkgDir is one directory of the module holding non-test Go code: its
// package clause and the module's own packages it imports, as directories
// ("." is package repro).
type pkgDir struct {
	name    string
	imports []string
}

// modulePackages reads the package clause and import specs of every
// non-test Go file in the tree.
func modulePackages(t *testing.T) map[string]pkgDir {
	t.Helper()
	pkgs := map[string]pkgDir{}
	walkNonTestImports(t, func(file string, f *ast.File) {
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
	})
	return pkgs
}

// walkNonTestImports parses the package clause and imports of every
// non-test Go file in the tree and hands each to fn. bench/ is a nested
// module, but it imports this one by path, so it is walked like any other
// directory; testdata and dot directories are not code.
func walkNonTestImports(t *testing.T, fn func(file string, f *ast.File)) {
	t.Helper()
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
		fn(file, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneRelaxLoop keeps the label-setting loop in one place: outside
// internal/spath and the heap package itself, no non-test file imports
// internal/pq or container/heap. A search that needs a heap runs on
// spath's kernel (DESIGN.md §5) instead of growing a loop of its own.
func TestOneRelaxLoop(t *testing.T) {
	walkNonTestImports(t, func(file string, f *ast.File) {
		switch filepath.ToSlash(filepath.Dir(file)) {
		case "internal/spath", "internal/pq":
			return
		}
		for _, spec := range f.Imports {
			if imp, _ := strconv.Unquote(spec.Path.Value); imp == "repro/internal/pq" || imp == "container/heap" {
				t.Errorf("%s imports %s; run the search on spath's kernel instead", filepath.ToSlash(file), imp)
			}
		}
	})
}

// TestEveryInternalPackageIsReachable keeps code that nothing runs out of
// the tree: following non-test imports from the facade (package repro),
// every binary (package main — cmd/*, the in-tree tools, bench/'s driver),
// every internal/ package is reached. A package that only tests import is
// listed below with its reason; an entry that is reachable, or names no
// package, fails too, so the list cannot outlive its reasons.
func TestEveryInternalPackageIsReachable(t *testing.T) {
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

// testSupport names the internal/ packages that only tests import, with the
// reason each is kept.
var testSupport = map[string]string{
	"internal/conformance":           "shared correctness harness; imported from _test.go files only",
	"internal/analysis/analysistest": "analyzer fixture runner; imported from _test.go files only",
}

// TestEveryDeclarationHasANonTestUse is TestEveryInternalPackageIsReachable
// one level down: every package-level func, type, var and const declared in
// non-test code under internal/ is used by non-test code somewhere in the
// tree. bench/ is a measurement of the product, not a use of it: a name only
// bench/ reaches needs an exception like a name only tests reach. Struct
// fields are not checked, nor the members of an iota const block (their
// values are a format), package main, or the test-support packages; methods
// have their own check below. A declaration only tests use is listed below with its
// reason; an entry that is used, or names nothing, fails too.
func TestEveryDeclarationHasANonTestUse(t *testing.T) {
	exceptions := map[string]string{
		"core.NewEB":                "test constructor: builds the EB server from a bare graph for ten packages' tests and bench/'s",
		"core.NewNR":                "test constructor: builds the NR server from a bare graph for ten packages' tests and bench/'s",
		"metrics.SameBucket":        "fleet's merge tests compare folded histogram tails bucket by bucket",
		"servercache.DisableDisk":   "test hook: tears down the disk tier a test enabled",
		"servercache.Len":           "test hook: counts the in-memory entries",
		"update.NewReplay":          "the offline oracle the update conformance fuzzers compare the live manager against",
		"baseline/djair.WriteCycle": "the streamed DJ build CI's scale job (internal/scale's TestContinentScale) writes to disk",

		// Reached only from bench/, which is not product code: each is kept
		// for the measurement named.
		"broadcast.NewChannel":  "the plain replayed channel: TestK1BitForBit pins the offline air against it, TestPayloadLifetime scribbles on it, and bench/'s offline_replay trace and listen probes drive it",
		"broadcast.NewTuner":    "bench/'s broadcast.listen_ns_per_packet and baseline.dj_lossy_query_ms probes tune straight onto a plain channel",
		"broadcast.WithTrailer": "bench/'s update.delta_encode_us probe prices a delta trailer; ROADMAP item 11 deletes it with the delta encoder",
		"core.DefaultOptions":   "bench/'s build probes read the paper's default region count from it",
		"graph.MapFile":         "the AIRM mapped graph: bench/'s graph.mapfile_open_ms probe and internal/scale's SCALE=1 test; ROADMAP item 11 decides it",
		"graph.WriteMapped":     "writes the AIRM file graph.MapFile opens, for the same probe and test",
		"packet.DecodeFrame":    "bench/'s packet.frame_decode_ns probe; the receiver opens envelopes itself (ROADMAP item 11)",
		"packet.EncodeDelta":    "bench/'s update.delta_encode_us probe; ROADMAP item 11 deletes it with the delta encoder",
	}

	unused, declared := unusedDeclarations(loadTree(t))
	for _, msg := range checkExceptions("declarations", unused, declared, exceptions) {
		t.Error(msg)
	}

	t.Run("stale exception", func(t *testing.T) {
		stale := map[string]string{"core.Options": "used by every build"}
		for name, reason := range exceptions {
			stale[name] = reason
		}
		if msgs := checkExceptions("declarations", unused, declared, stale); len(msgs) == 0 {
			t.Error("an exception for a used declaration passed")
		}
	})
}

// TestEveryMethodHasANonTestUse is the declaration check for methods: every
// exported method of a type declared in non-test code under internal/ (less
// package main and the test-support packages) is reached from non-test code
// somewhere in the tree. A method is reached when
//
//   - non-test code selects it, promoted selections included (a call
//     through an embedding struct resolves to the embedded method);
//   - it completes an interface that non-test code names, or that types a
//     parameter of a function the tree calls (sort.Sort's sort.Interface),
//     for its type, the pointer to it, or a type that embeds it; or
//   - fmt, errors or encoding/json call it by name (String, Error, Unwrap,
//     Is, As, Format, Marshal*, Unmarshal*).
//
// Methods of the types the facade (repro.go) aliases are public API and
// exempt. A method only tests reach is listed below with its reason; an
// entry that is reached, or names nothing, fails too.
func TestEveryMethodHasANonTestUse(t *testing.T) {
	exceptions := map[string]string{
		"update.Replay.SwapAt":    "the offline oracle's swap, like update.NewReplay: the update conformance fuzzers drive mid-swap scenarios through it",
		"chaos.Injector.WireHook": "ROADMAP item 1's seeded whole-stack simulation composes the injector with wire.Broadcaster through it",
		"chaos.Schedule.At":       "ROADMAP item 1's seeded whole-stack simulation reads a fault schedule position by position through it",

		// Reached only from bench/, which is not product code.
		"diskcache.Cache.Put":     "bench/'s diskcache.put_mb_s probe writes whole entries through it; the build path streams its writes",
		"graph.MappedGraph.Close": "unmaps the AIRM graph bench/'s graph.mapfile_open_ms probe opens (see graph.MapFile)",
	}

	unused, declared := unusedMethods(loadTree(t))
	for _, msg := range checkExceptions("methods", unused, declared, exceptions) {
		t.Error(msg)
	}

	t.Run("stale exception", func(t *testing.T) {
		stale := map[string]string{"update.Manager.Apply": "every dynamic deployment applies its updates through it"}
		for name, reason := range exceptions {
			stale[name] = reason
		}
		if msgs := checkExceptions("methods", unused, declared, stale); len(msgs) == 0 {
			t.Error("an exception for a reached method passed")
		}
	})
}

// checkExceptions reports the unused names of one kind that have no
// exception, and the exceptions that name a used one or none at all.
func checkExceptions(kind string, unused []string, declared map[string]bool, exceptions map[string]string) []string {
	var msgs []string
	var missing []string
	for _, name := range unused {
		if exceptions[name] == "" {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		msgs = append(msgs, fmt.Sprintf("%d %s under internal/ have no non-test use (delete them, or give them a caller):\n  %s",
			len(missing), kind, strings.Join(missing, "\n  ")))
	}
	for name, reason := range exceptions {
		if !declared[name] {
			msgs = append(msgs, fmt.Sprintf("exception %s (%s) names none of the checked %s", name, reason, kind))
		} else if !slices.Contains(unused, name) {
			msgs = append(msgs, fmt.Sprintf("exception %s (%s) is stale: non-test code uses it", name, reason))
		}
	}
	sort.Strings(msgs)
	return msgs
}

// tree is the module's non-test code (bench/ left out), loaded and
// typechecked once for both use checks, and every object that code uses.
type tree struct {
	pkgs []*load.Package
	used map[types.Object]bool
}

var loadTreeOnce = sync.OnceValues(func() (*tree, error) {
	l, err := load.NewLoader(".")
	if err != nil {
		return nil, err
	}
	dirs, err := load.Expand(".", []string{"./..."})
	if err != nil {
		return nil, err
	}
	dirs = slices.DeleteFunc(dirs, func(dir string) bool {
		return dir == "bench" || strings.HasPrefix(dir, "bench"+string(filepath.Separator))
	})
	tr := &tree{used: map[types.Object]bool{}}
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s: %v", pkg.Path, pkg.TypeErrors[0])
		}
		for _, obj := range pkg.Info.Uses {
			tr.used[obj] = true
		}
		tr.pkgs = append(tr.pkgs, pkg)
	}
	return tr, nil
})

// loadTree loads and typechecks every package of the module without its
// tests (bench/, a module of its own, left out), once per test process.
func loadTree(t *testing.T) *tree {
	t.Helper()
	tr, err := loadTreeOnce()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkedPackages calls fn with every checked package and its directory
// under internal/: not package main, not a test-support package.
func (tr *tree) checkedPackages(fn func(dir string, pkg *load.Package)) {
	for _, pkg := range tr.pkgs {
		dir, ok := strings.CutPrefix(pkg.Path, "repro/internal/")
		if ok && pkg.Types.Name() != "main" && testSupport["internal/"+dir] == "" {
			fn(dir, pkg)
		}
	}
}

// unusedDeclarations returns the checked package-level declarations no
// non-test code uses, as sorted "pkg.Name" strings (pkg is the directory
// under internal/), and the set of every checked declaration.
func unusedDeclarations(tr *tree) (unused []string, declared map[string]bool) {
	declared = map[string]bool{}
	tr.checkedPackages(func(dir string, pkg *load.Package) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, id := range checkedNames(decl) {
					if id.Name == "_" || id.Name == "init" {
						continue
					}
					name := dir + "." + id.Name
					declared[name] = true
					if !tr.used[pkg.Info.Defs[id]] {
						unused = append(unused, name)
					}
				}
			}
		}
	})
	sort.Strings(unused)
	return unused, declared
}

// unusedMethods returns the checked exported methods non-test code does
// not reach, as sorted "pkg.Type.Method" strings, and the set of every
// checked method.
func unusedMethods(tr *tree) (unused []string, declared map[string]bool) {
	reached, public := tr.reachedMethods(), facadeAliased(tr)
	declared = map[string]bool{}
	tr.checkedPackages(func(dir string, pkg *load.Package) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Recv == nil || !d.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[d.Name].(*types.Func)
				recv := receiverType(fn)
				if public[recv] {
					continue
				}
				name := dir + "." + recv.Name() + "." + fn.Name()
				declared[name] = true
				if !reached[fn] && !byConvention(fn.Name()) {
					unused = append(unused, name)
				}
			}
		}
	})
	sort.Strings(unused)
	return unused, declared
}

// reachedMethods returns the methods non-test code selects, and those that
// complete an interface it needs (see TestEveryMethodHasANonTestUse).
func (tr *tree) reachedMethods() map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	var ifaces []*types.Interface
	needs := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			ifaces = append(ifaces, iface)
		}
	}
	for obj := range tr.used {
		switch obj := obj.(type) {
		case *types.Func:
			reached[obj.Origin()] = true
			params := obj.Signature().Params()
			for i := 0; i < params.Len(); i++ {
				typ := params.At(i).Type()
				if s, ok := typ.(*types.Slice); ok && obj.Signature().Variadic() && i == params.Len()-1 {
					typ = s.Elem()
				}
				needs(typ)
			}
		case *types.TypeName, *types.Var:
			needs(obj.Type())
		}
	}
	var named []*types.Named
	for _, pkg := range tr.pkgs {
		for expr, tv := range pkg.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				needs(tv.Type)
			}
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		for _, iface := range ifaces {
			var recv types.Type = types.NewPointer(n)
			if !types.Implements(recv, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name()); obj != nil {
					reached[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}
	return reached
}

// byConvention reports whether fmt, errors or encoding/json call a method
// of this name without the code naming it.
func byConvention(name string) bool {
	switch name {
	case "String", "Error", "Unwrap", "Is", "As", "Format":
		return true
	}
	return strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal")
}

// receiverType returns the named type a method is declared on.
func receiverType(fn *types.Func) *types.TypeName {
	typ := fn.Signature().Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named).Obj()
}

// facadeAliased returns the types package repro aliases: its public API.
func facadeAliased(tr *tree) map[*types.TypeName]bool {
	aliased := map[*types.TypeName]bool{}
	for _, pkg := range tr.pkgs {
		if pkg.Path != "repro" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[n.Obj()] = true
				}
			}
		}
	}
	return aliased
}

// checkedNames returns the names a top-level declaration declares, less
// methods and the members of a const block that uses iota.
func checkedNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		if d.Tok == token.CONST && usesIota(d) {
			return nil
		}
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
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

// TestReadmeCommandsAreTheBinaries holds README's Commands table to cmd/:
// every directory under cmd/ has exactly one row, and every row names one.
func TestReadmeCommandsAreTheBinaries(t *testing.T) {
	doc, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## Commands\n\n| command | purpose |\n|---|---|\n")
	if !ok {
		t.Fatal("README.md has no Commands table")
	}
	table, _, _ = strings.Cut(table, "\n\n")

	rows := map[string]int{}
	cell := regexp.MustCompile("^\\| `(cmd/[^`]*)` *\\|")
	for _, line := range strings.Split(table, "\n") {
		m := cell.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("Commands row does not name a cmd/ directory: %q", line)
			continue
		}
		rows[m[1]]++
	}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := "cmd/" + e.Name()
		if rows[dir] != 1 {
			t.Errorf("%s has %d rows in README's Commands table, want 1", dir, rows[dir])
		}
		delete(rows, dir)
	}
	for dir := range rows {
		t.Errorf("README's Commands table names %s, which is not a directory under cmd/", dir)
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

// TestDesignTransportTableIsTheImplementations holds DESIGN.md §2's
// transport table to the code: its rows are exactly the types of the
// module's non-test code that implement transport.Transport, one row each.
func TestDesignTransportTableIsTheImplementations(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 2. ")
	if !ok {
		t.Fatal("DESIGN.md has no §2")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, table, ok := strings.Cut(section, "| transport | feed | shape |\n|---|---|---|\n")
	if !ok {
		t.Fatal("§2 has no transport table")
	}
	table, _, _ = strings.Cut(table, "\n\n")

	rows := map[string]int{}
	cell := regexp.MustCompile("^\\| `([a-z]+\\.[A-Za-z]+)` \\|")
	for _, line := range strings.Split(table, "\n") {
		m := cell.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("§2 transport row does not name a type: %q", line)
			continue
		}
		rows[m[1]]++
	}

	tr := loadTree(t)
	var iface *types.Interface
	impl := map[string]bool{}
	for _, pkg := range tr.pkgs {
		if pkg.Path == "repro/internal/transport" {
			iface = pkg.Types.Scope().Lookup("Transport").Type().Underlying().(*types.Interface)
		}
	}
	if iface == nil {
		t.Fatal("no transport.Transport in the tree")
	}
	for _, pkg := range tr.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if types.Implements(types.NewPointer(tn.Type()), iface) {
				impl[pkg.Types.Name()+"."+name] = true
			}
		}
	}
	for name := range impl {
		if rows[name] != 1 {
			t.Errorf("%s implements transport.Transport and has %d rows in DESIGN.md §2's table, want 1", name, rows[name])
		}
	}
	for name := range rows {
		if !impl[name] {
			t.Errorf("DESIGN.md §2's transport table names %s, which does not implement transport.Transport", name)
		}
	}
}
