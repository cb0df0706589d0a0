// Command airvet runs the repo's static-analysis suite (internal/analysis):
// determinism, noalloc, obsdiscipline and frameconst.
//
//	airvet [flags] ./...
//
// resolves the package patterns, typechecks them from source and runs every
// analyzer. Flags:
//
//	-run a,b     run only the named analyzers
//	-json        print diagnostics as a JSON array on stdout
//	-fix         apply suggested fixes in place
//	-list        list the analyzers and exit
//
// Exit code 0 means no findings, 1 means findings, 2 means the tool itself
// failed (bad pattern, unparseable package).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

var (
	flagRun  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flagJSON = flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	flagFix  = flag.Bool("fix", false, "apply suggested fixes")
	flagList = flag.Bool("list", false, "list analyzers and exit")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: airvet [flags] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := selected()
	if *flagList {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standaloneMain(args, analyzers))
}

// selected filters the suite by -run.
func selected() []*analysis.Analyzer {
	out, err := selectAnalyzers(*flagRun)
	if err != nil {
		fmt.Fprintf(os.Stderr, "airvet: %v\n", err)
		os.Exit(2)
	}
	return out
}

// selectAnalyzers resolves a comma-separated -run value against the suite;
// naming an unknown analyzer is a usage error, not a silent no-op.
func selectAnalyzers(runFlag string) ([]*analysis.Analyzer, error) {
	all := suite.Analyzers()
	if runFlag == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(runFlag, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown analyzer(s) in -run: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}
