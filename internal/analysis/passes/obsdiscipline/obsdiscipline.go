// Package obsdiscipline enforces the metric-registration rules of
// DESIGN.md §10 at vet time: literal air_-prefixed names, literal bounded
// label sets (never a node, client, subscriber, query, session or version
// identity as a label value), and registration shapes that cannot mint
// unbounded series.
package obsdiscipline

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "obsdiscipline",
	Doc: `enforce metric naming and label-cardinality rules at obs registration sites

Every call that registers (or fetches) an instrument — obs.GetCounter,
obs.GetGauge, obs.GetHistogram, and the Counter/Gauge/Histogram methods of
obs.Registry — is checked:

  - the metric name must be a constant string, snake_case, prefixed air_;
    counters must end in _total (Prometheus convention, DESIGN.md §10);
  - the help string must be a non-empty constant;
  - label pairs must be statically visible (no slice-spread), keys constant
    snake_case strings, and label values must not derive from unbounded
    identity spaces: an expression mentioning a node/client/subscriber/
    query/session/version/seed/address identifier is reported;
  - registration inside a loop or go statement is reported unless every
    label key is from the closed bounded set (channel, method, kind,
    scheme, shard, level, mode, result): loops over anything else mint
    series per iteration.

The registry is registration-idempotent, so re-registration is not a
correctness bug — these rules exist to bound cardinality and keep
registration off hot paths. There is deliberately no opt-out directive:
a metric that cannot satisfy them needs a design review, not an
annotation.`,
	Run: run,
}

// registerFuncs names the obs registration entry points, all shaped (name,
// help, labels...). Matching is by function name within a package whose
// path ends in "obs" (the real internal/obs, or a fixture).
var registerFuncs = map[string]bool{
	"GetCounter": true, "GetGauge": true, "GetHistogram": true,
	"Counter": true, "Gauge": true, "Histogram": true,
}

var (
	nameRE = regexp.MustCompile(`^air_[a-z0-9]+(_[a-z0-9]+)*$`)
	keyRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// identityWords are label-value identifier words that name unbounded
// spaces. An identifier is split camelCase/snake_case and matched whole-
// word, so "nodeID" and "client_id" hit while "method" and "channel" pass.
var identityWords = map[string]bool{
	"node": true, "client": true, "subscriber": true, "query": true,
	"session": true, "version": true, "seed": true, "addr": true,
	"address": true, "host": true, "uid": true, "guid": true,
}

// boundedKeys are the closed label-key vocabulary under which registration
// in a loop is acceptable (the loop is over a deployment-bounded set).
var boundedKeys = map[string]bool{
	"channel": true, "method": true, "kind": true, "scheme": true,
	"shard": true, "level": true, "mode": true, "result": true,
}

func run(pass *analysis.Pass) (any, error) {
	// The obs package itself is the implementation: its forwarding shims
	// necessarily pass dynamic names through to the registry. The rules
	// bind registration call sites in every other package.
	if p := pass.Pkg.Path(); p == "obs" || strings.HasSuffix(p, "/obs") {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := registrationCall(pass.TypesInfo, call)
			if !ok {
				return true
			}
			checkRegistration(pass, call, name, stack)
			return true
		})
	}
	return nil, nil
}

// registrationCall reports whether call registers an obs instrument,
// returning the called function's name.
func registrationCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !registerFuncs[fn.Name()] {
		return "", false
	}
	path := fn.Pkg().Path()
	if path != "obs" && !strings.HasSuffix(path, "/obs") {
		return "", false
	}
	// Package-level Get* or a method on Registry; all have the (name, help,
	// labels...) shape. Anything else named Counter on an obs type would be
	// a method with a different signature — filter by the first parameter
	// being a string.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() < 2 {
		return "", false
	}
	if b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return "", false
	}
	return fn.Name(), true
}

func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, fnName string, stack []ast.Node) {
	info := pass.TypesInfo
	reportf := func(n ast.Node, format string, args ...any) {
		pass.Report(analysis.Diagnostic{
			Pos: n.Pos(), End: n.End(), Category: "obsdiscipline",
			Message: fmt.Sprintf(format, args...),
		})
	}
	if len(call.Args) < 2 {
		return
	}

	// Metric name: constant, air_-prefixed, snake_case, _total counters.
	name, nameConst := constString(info, call.Args[0])
	if !nameConst {
		reportf(call.Args[0], "metric name must be a constant string (dynamic names are unbounded series)")
	} else {
		if !nameRE.MatchString(name) {
			reportf(call.Args[0], "metric name %q must be snake_case with the air_ prefix (DESIGN.md §10)", name)
		}
		if strings.Contains(fnName, "Counter") && !strings.HasSuffix(name, "_total") {
			reportf(call.Args[0], "counter %q must end in _total (Prometheus counter convention)", name)
		}
		if !strings.Contains(fnName, "Counter") && strings.HasSuffix(name, "_total") {
			reportf(call.Args[0], "%s %q: the _total suffix is reserved for counters", strings.ToLower(strings.TrimPrefix(fnName, "Get")), name)
		}
	}

	// Help string: non-empty constant.
	if help, ok := constString(info, call.Args[1]); !ok {
		reportf(call.Args[1], "metric help must be a constant string")
	} else if strings.TrimSpace(help) == "" {
		reportf(call.Args[1], "metric help must not be empty")
	}

	// Label pairs follow name and help.
	const labelStart = 2
	var keys []string
	if len(call.Args) > labelStart {
		if call.Ellipsis.IsValid() {
			reportf(call.Args[len(call.Args)-1], "label set must be spelled literally at the registration site, not spread from a slice")
			return
		}
		labels := call.Args[labelStart:]
		if len(labels)%2 != 0 {
			reportf(call, "odd label argument count: labels are (key, value) pairs")
		}
		for i, arg := range labels {
			if i%2 == 0 { // key
				key, ok := constString(info, arg)
				if !ok {
					reportf(arg, "label key must be a constant string")
					continue
				}
				keys = append(keys, key)
				if !keyRE.MatchString(key) {
					reportf(arg, "label key %q must be snake_case", key)
				}
				continue
			}
			// value
			if _, ok := constString(info, arg); ok {
				continue
			}
			if id := identityIdent(info, arg); id != "" {
				reportf(arg, "label value derives from %q: node/client/query/session/version identities are unbounded label spaces (DESIGN.md §10)", id)
			}
		}
	}

	// Registration shape: loops and go statements mint series.
	if loop := enclosingLoopOrGo(stack); loop != "" {
		for _, k := range keys {
			if !boundedKeys[k] {
				reportf(call, "registration inside a %s with label key %q outside the bounded vocabulary mints unbounded series; hoist it or use a bounded key", loop, k)
				break
			}
		}
		if len(keys) == 0 {
			reportf(call, "unlabeled registration inside a %s re-registers the same series per iteration; hoist it to package level", loop)
		}
	}
}

// constString returns the constant string value of e, if it has one.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// identityIdent scans an expression for identifiers whose name contains an
// identity word (nodeID, clientAddr, ...), returning the first offender.
func identityIdent(info *types.Info, e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		for _, w := range splitWords(id.Name) {
			if identityWords[w] {
				found = id.Name
				return false
			}
		}
		return true
	})
	return found
}

// splitWords breaks an identifier into lowercase words on underscores and
// camelCase boundaries ("nodeID" -> node, id; "client_addr" -> client, addr).
func splitWords(s string) []string {
	var words []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			words = append(words, strings.ToLower(string(cur)))
			cur = cur[:0]
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case r == '_':
			flush()
		case r >= 'A' && r <= 'Z':
			// Boundary before an upper rune following a lower rune, or an
			// upper rune followed by a lower one (end of an acronym).
			if i > 0 && (isLower(runes[i-1]) || (i+1 < len(runes) && isLower(runes[i+1]))) {
				flush()
			}
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return words
}

func isLower(r rune) bool { return r >= 'a' && r <= 'z' }

// enclosingLoopOrGo names the innermost enclosing loop or go statement, or
// returns "".
func enclosingLoopOrGo(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return "loop"
		case *ast.GoStmt:
			return "go statement"
		case *ast.FuncDecl, *ast.FuncLit:
			// A func literal boundary: the loop outside it runs the
			// literal, not the registration, at unknown cadence — keep
			// scanning only through immediate syntactic loops.
			return ""
		}
	}
	return ""
}
