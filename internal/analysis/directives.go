package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// The repo's analyzer directives ride ordinary comments with the
// machine-readable `//air:` prefix (no space, like //go: directives):
//
//	//air:deterministic
//	    File-level: marks the enclosing package deterministic for the
//	    determinism analyzer, in addition to the built-in package list.
//	//air:noalloc
//	    In a function's doc comment: the function is a pinned zero-alloc
//	    hot path; the noalloc analyzer checks its body.
//	//air:nondeterministic "justification"
//	    On (or immediately above) a line: suppresses determinism findings
//	    for that line. The justification string is mandatory.
//	//air:alloc-ok "justification"
//	    On (or immediately above) a line inside an //air:noalloc function:
//	    suppresses noalloc findings for that line. Justification mandatory.
const (
	DirDeterministic    = "deterministic"
	DirNoAlloc          = "noalloc"
	DirNondeterministic = "nondeterministic"
	DirAllocOK          = "alloc-ok"
)

// A Directive is one parsed //air: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "nondeterministic"
	Arg  string // unquoted justification, "" if absent
	Raw  string // argument text as written (diagnosed when unquotable)
}

// Directives holds every //air: directive of one file, indexed by the line
// the comment sits on.
type Directives struct {
	fset   *token.FileSet
	byLine map[int][]Directive
	all    []Directive
}

// ParseDirectives collects the //air: directives of a file. The file must
// have been parsed with parser.ParseComments.
func ParseDirectives(fset *token.FileSet, file *ast.File) *Directives {
	d := &Directives{fset: fset, byLine: map[int][]Directive{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			dir, ok := parseDirective(c)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			d.byLine[line] = append(d.byLine[line], dir)
			d.all = append(d.all, dir)
		}
	}
	return d
}

func parseDirective(c *ast.Comment) (Directive, bool) {
	const prefix = "//air:"
	if !strings.HasPrefix(c.Text, prefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, prefix)
	name, arg, _ := strings.Cut(rest, " ")
	dir := Directive{Pos: c.Pos(), Name: strings.TrimSpace(name), Raw: strings.TrimSpace(arg)}
	if unq, err := strconv.Unquote(dir.Raw); err == nil {
		dir.Arg = unq
	}
	return dir, true
}

// Has reports whether the file carries a directive with the given name
// anywhere (used for file/package-level markers like //air:deterministic).
func (d *Directives) Has(name string) bool {
	for _, dir := range d.all {
		if dir.Name == name {
			return true
		}
	}
	return false
}

// SuppressedAt reports whether a finding at pos is suppressed by a
// directive of the given name on the same line or the line immediately
// above. The returned Directive is valid only when suppressed.
func (d *Directives) SuppressedAt(name string, pos token.Pos) (Directive, bool) {
	line := d.fset.Position(pos).Line
	for _, candidate := range [...]int{line, line - 1} {
		for _, dir := range d.byLine[candidate] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// CheckJustified reports suppression directives that are missing their
// mandatory justification string: an unexplained opt-out is itself a
// finding. Analyzers that honor a suppression directive call this once per
// file with the directive names they accept.
func CheckJustified(pass *Pass, d *Directives, names ...string) {
	for _, dir := range d.all {
		for _, name := range names {
			if dir.Name != name {
				continue
			}
			if dir.Arg == "" {
				pass.Report(Diagnostic{
					Pos:      dir.Pos,
					Category: "directive",
					Message:  "//air:" + name + " requires a quoted justification string, e.g. //air:" + name + ` "build-time stats only"`,
				})
			}
		}
	}
}

// FuncDirective reports whether fn's doc comment carries the named
// directive (e.g. //air:noalloc).
func FuncDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if dir, ok := parseDirective(c); ok && dir.Name == name {
			return true
		}
	}
	return false
}
