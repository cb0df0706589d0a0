package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testScale shrinks the network to a few hundred nodes: the tests check
// what the benchmark does, not how long it takes.
const testScale = 0.02

// One root and one disk tier for the whole test process: re-enabling the
// tier on another directory unmaps the cycles of every warm-loaded server
// still cached in memory.
var testRoot, testCacheDir string

func TestMain(m *testing.M) {
	root, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testRoot, testCacheDir = root, filepath.Join(root, ".bench_build", "cache")
	if err := os.MkdirAll(testCacheDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(root)
	os.Exit(code)
}

// testOptions are a smoke run's settings; every test passes its own seed so
// no two runs share a build-cache key.
func testOptions(t *testing.T, workload string, seed int64) options {
	return options{
		workload: workload, seed: seed, seconds: 0, scale: testScale,
		root: testRoot, cacheDir: testCacheDir, logf: t.Logf,
	}
}

// go run . and go test start in bench/; run.sh and the driver start in the
// checkout root. Both must find the same root, or scratch and span files
// land where the root .gitignore does not name them.
func TestFindRootFromBenchDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Dir(wd); root != want {
		t.Errorf("root %s, want %s", root, want)
	}
}
