// Command bench is the repository's benchmark: four workloads over the
// whole broadcast path, end-to-end metrics measured untraced, and a traced
// run that attributes them to layers. See README.md and ../BENCHMARK.json.
//
//	go run . -workload offline_replay -seed 1            one workload, untraced
//	go run . -workload all -seed 1 -trace 1 -out t.json   every workload, traced
//	go run . -compare a.json b.json                       before/after table
//	go run . -selfcheck -seed 1                           the same code twice
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		o         options
		trace     int
		out       string
		compare   bool
		selfcheck bool
		manifest  bool
	)
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&out, "out", "", "write the run's full JSON document(s) here")
	flag.BoolVar(&compare, "compare", false, "compare two -out documents: bench -compare a.json b.json")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the untraced set twice and compare the two")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as derived from the metric catalogue")
	flag.Parse()
	o.trace = trace != 0
	o.scale = benchScale
	o.probes = true
	o.logf = log.Printf

	var err error
	if !manifest && !compare {
		if o.root, err = findRoot(); err == nil {
			err = os.MkdirAll(filepath.Join(o.root, ".bench_build"), 0o755)
		}
	}
	switch {
	case err != nil:
	case manifest:
		err = writeManifest(os.Stdout)
	case compare:
		if flag.NArg() != 2 {
			log.Fatal("-compare needs two files")
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case selfcheck:
		err = selfCheck(o)
	case o.workload == "all":
		var reps []*report
		if reps, err = runAll(o); err == nil {
			err = writeDoc(out, reps)
		}
	default:
		err = runOne(o, out)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// findRoot returns the checkout root: the nearest directory at or above the
// working directory that holds BENCHMARK.json. Scratch files
// (<root>/.bench_build) and span files (<root>/bench/out) live under it, so
// they land where the root .gitignore names them whether the program was
// started there (run.sh, the driver) or in bench/ (go run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory: run from inside the checkout")
		}
		dir = parent
	}
}

// runOne measures one workload in this process and prints the contract
// line last on standard output.
func runOne(o options, out string) error {
	cache, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cache)
	o.cacheDir = cache
	rep, err := runWorkload(context.Background(), o)
	if err != nil {
		return err
	}
	rep.table(os.Stderr)
	if err := writeDoc(out, []*report{rep}); err != nil {
		return err
	}
	line, err := rep.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d queries failed", rep.Workload, rep.Failed, rep.Attempted)
	}
	return nil
}

// runAll measures every workload, each in a fresh child process so set-up
// time, peak memory and the build caches are per workload.
func runAll(o options) ([]*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "all-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var reps []*report
	for _, sp := range specs {
		doc := filepath.Join(tmp, sp.name+".json")
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", sp.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-out", doc)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", sp.name, err)
		}
		got, err := readDoc(doc)
		if err != nil {
			return nil, err
		}
		reps = append(reps, got...)
	}
	return reps, nil
}

// writeDoc writes the reports as one JSON document; an empty path is
// standard output for a multi-workload run and nothing for a single one
// (whose standard output ends with the contract line).
func writeDoc(path string, reps []*report) error {
	if path == "" && len(reps) == 1 {
		return nil
	}
	raw, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readDoc(path string) ([]*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(raw, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}
