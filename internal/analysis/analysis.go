// Package analysis is the repo's static-analysis core: a dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface (Analyzer,
// Pass, Diagnostic, SuggestedFix) that the airvet suite is written against.
//
// The module is deliberately dependency-free (go.mod lists nothing), so the
// real x/tools framework is not available; this package mirrors its API
// shape closely enough that the analyzers in passes/* would compile against
// the upstream types with only an import swap. The drivers live next door:
// load.go resolves and typechecks packages with the standard library's
// source importer, and cmd/airvet runs the suite over them.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis: a named rule set over a typechecked
// package. Mirrors x/tools go/analysis.Analyzer (modular facts omitted —
// every airvet rule is intra-package).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters. By
	// convention it is a single lowercase word.
	Name string

	// Doc is the analyzer's documentation: first line is a summary, the
	// rest explains the rule and its opt-out directive.
	Doc string

	// Run applies the analyzer to one package and reports diagnostics
	// through the pass. The result value is returned to the driver (unused
	// by airvet's analyzers; kept for API parity).
	Run func(*Pass) (any, error)
}

// A Pass is one analyzer applied to one package: the syntax, type
// information and reporting sink for a single Analyzer.Run call.
type Pass struct {
	Analyzer *Analyzer

	// Fset positions every file in Files.
	Fset *token.FileSet

	// Files is the package's syntax, test files included when the driver
	// loaded them. Analyzers that exempt tests skip files whose name ends
	// in _test.go (see IsTestFile).
	Files []*ast.File

	// Pkg is the typechecked package.
	Pkg *types.Package

	// TypesInfo holds the package's type facts. It is always non-nil, but
	// may be partially filled if the package had type errors (the driver
	// reports those separately).
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// A Diagnostic is one finding: a position, a message, and optionally a
// machine-applicable fix.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional: defaults to Pos
	Category string    // optional: a rule name within the analyzer
	Message  string

	// SuggestedFixes are safe, mechanical edits that resolve the finding
	// (applied by `airvet -fix`). Fixes must not change behavior — airvet
	// only attaches one where the replacement is provably equivalent (e.g.
	// a re-spelled wire literal replaced by the named constant).
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one alternative edit set resolving a diagnostic.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces source in the interval [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The determinism, noalloc and frameconst rules bind the shipped system,
// not its tests: tests legitimately read wall clocks, allocate, and
// re-spell wire bytes to assert the format from outside.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
