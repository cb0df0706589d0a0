package servercache

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
)

func TestGetBuildsOncePerKey(t *testing.T) {
	Flush()
	var builds atomic.Int64
	key := Key{Network: "n1", Scheme: "NR", Params: "r=8"}
	build := func() (int, error) {
		builds.Add(1)
		return 42, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Get(key, build)
			if err != nil || v != 42 {
				t.Errorf("Get = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one key, want 1", builds.Load())
	}
	if _, err := Get(Key{Network: "n1", Scheme: "NR", Params: "r=16"}, build); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Fatalf("%d builds after distinct params, want 2", builds.Load())
	}
	if Len() != 2 {
		t.Fatalf("Len = %d, want 2", Len())
	}
}

// TestVersionKeysAreDistinct: every cycle version of a dynamic network is
// its own immutable entry — rebuilds key differently instead of
// invalidating.
func TestVersionKeysAreDistinct(t *testing.T) {
	Flush()
	builds := 0
	for _, v := range []uint32{0, 1, 2, 1} {
		got, err := Get(Key{Network: "n1", Scheme: "NR", Params: "r=8", Version: v}, func() (uint32, error) {
			builds++
			return v, nil
		})
		if err != nil || got != v {
			t.Fatalf("Get(v=%d) = %v, %v", v, got, err)
		}
	}
	if builds != 3 {
		t.Fatalf("%d builds for versions {0,1,2,1}, want 3", builds)
	}
}

func TestGetCachesErrors(t *testing.T) {
	Flush()
	sentinel := errors.New("deterministic build failure")
	builds := 0
	key := Key{Network: "bad", Scheme: "EB"}
	for i := 0; i < 3; i++ {
		_, err := Get(key, func() (int, error) {
			builds++
			return 0, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("Get error = %v, want sentinel", err)
		}
	}
	if builds != 1 {
		t.Fatalf("%d builds for an erroring key, want 1", builds)
	}
}

// TestGetRetriesTransientErrors is the regression test for the
// cached-forever error bug: a transient failure (disk full, failed mmap)
// must drop the entry so the next Get retries, while deterministic errors
// stay cached (previous test). The third build succeeding proves the key
// was never poisoned.
func TestGetRetriesTransientErrors(t *testing.T) {
	Flush()
	diskFull := &os.PathError{Op: "write", Path: "cycle.airc", Err: syscall.ENOSPC}
	key := Key{Network: "n1", Scheme: "NR", Params: "disk"}
	builds := 0
	got, err := Get(key, func() (int, error) {
		builds++
		if builds <= 2 {
			return 0, diskFull
		}
		return 7, nil
	})
	if err == nil {
		t.Fatal("first Get of a failing build succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("transient error not recognized: %v", err)
	}
	for i := 0; i < 2; i++ {
		got, err = Get(key, func() (int, error) {
			builds++
			if builds <= 2 {
				return 0, diskFull
			}
			return 7, nil
		})
	}
	if err != nil || got != 7 {
		t.Fatalf("Get after transient failures = %v, %v; want 7, nil", got, err)
	}
	if builds != 3 {
		t.Fatalf("%d builds across 2 transient failures + success, want 3", builds)
	}
	if Len() != 1 {
		t.Fatalf("Len = %d after recovery, want 1", Len())
	}
	// The successful value is now cached: no further builds.
	if _, err := Get(key, func() (int, error) { builds++; return 0, errors.New("rebuilt") }); err != nil {
		t.Fatal(err)
	}
	if builds != 3 {
		t.Fatalf("recovered key rebuilt (%d builds)", builds)
	}
}

// TestIsTransientOSErrors: unwrapped OS-level I/O failures count as
// transient without explicit wrapping — a build that propagates a raw
// *os.PathError (ENOSPC, EMFILE) must not poison its key.
func TestIsTransientOSErrors(t *testing.T) {
	_, err := os.Open("/nonexistent/servercache/probe")
	if !IsTransient(err) {
		t.Errorf("os.PathError not transient: %v", err)
	}
	if !IsTransient(fmt.Errorf("build: %w", err)) {
		t.Error("wrapped os.PathError not transient")
	}
	if IsTransient(errors.New("regions must be a power of two")) {
		t.Error("deterministic error classified transient")
	}
	if IsTransient(nil) {
		t.Error("nil classified transient")
	}
}
