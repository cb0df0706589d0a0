// Package servercache is the shared immutable build cache for air-index
// servers and everything expensive on the way to one: generated networks,
// region pre-computation, assembled broadcast cycles.
//
// Building a server is orders of magnitude more expensive than answering a
// query on it (one Dijkstra per border node, then cycle assembly), and the
// repo's consumers — the experiment harness regenerating every table and
// figure, the conformance fuzzer revisiting (network, scheme) pairs, the
// fleet and the cmd front ends — kept rebuilding identical cycles from
// scratch. Everything a build produces is immutable after construction
// (graphs, cycles, border data; clients carry all per-query state), so one
// cache entry can be shared freely across goroutines: a fuzz worker pool or
// a fleet shares one decoded air instead of N copies.
//
// Entries build at most once: concurrent Gets for the same key block on a
// single build (singleflight via sync.Once) instead of duplicating it.
package servercache

import (
	"errors"
	"os"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Package-level instruments (DESIGN.md §10).
var (
	obsHits = obs.GetCounter("air_servercache_hits_total",
		"Gets served from an existing entry")
	obsMisses = obs.GetCounter("air_servercache_misses_total",
		"Gets that created the entry (build ran once)")
	obsEntries = obs.GetGauge("air_servercache_entries",
		"entries currently cached")
	obsBytes = obs.GetCounter("air_servercache_cycle_bytes_total",
		"on-air bytes of cached cycles (best effort: builds whose value exposes a cycle)")
	obsBuildSecs = obs.GetHistogram("air_servercache_build_seconds",
		"wall time of cache-miss builds")
	obsTransient = obs.GetCounter("air_servercache_transient_errors_total",
		"builds that failed transiently (entry dropped so the next Get retries)")
)

// Key identifies one built artifact. The string fields are canonical so
// callers control exactly what "the same build" means.
type Key struct {
	// Network names the road network: preset/scale/seed or nodes/edges/seed.
	// A versioned build also folds the identity of its update sequence in
	// here (internal/update signs the applied updates): a re-weighed network
	// is a different network, and a version number alone does not say which.
	Network string
	// Scheme names what was built on it ("NR", "EB", "graph", "parts", ...).
	Scheme string
	// Params captures every build parameter that changes the output
	// (regions, segmentation, landmarks, channel count, ...).
	Params string
	// Version is the broadcast-cycle version of a dynamic build
	// (internal/update); static builds leave it zero. Every version of a
	// network is its own immutable cache entry — rebuilds never invalidate,
	// they key differently.
	Version uint32
}

type entry struct {
	once sync.Once
	val  any
	err  error
}

var cache sync.Map // Key -> *entry

// Get returns the value cached under key, invoking build at most once
// across all concurrent callers. A deterministic build error is cached too —
// the same key produces the same error, so there is no point retrying. A
// transient error (see IsTransient: OS-level I/O failures) drops the entry
// instead, so the next Get for the key retries the build; callers already
// waiting on the failed build still observe the error. This matters once builds touch disk (the diskcache
// layer): ENOSPC or a failed mmap must not poison the key forever.
func Get[T any](key Key, build func() (T, error)) (T, error) {
	e, loaded := cache.LoadOrStore(key, &entry{})
	ent := e.(*entry)
	if loaded {
		obsHits.Inc()
	} else {
		obsMisses.Inc()
		obsEntries.Inc()
	}
	ent.once.Do(func() {
		started := time.Now()
		ent.val, ent.err = build()
		obsBuildSecs.Observe(time.Since(started).Seconds())
		if ent.err == nil {
			obsBytes.Add(cycleBytes(ent.val))
		}
	})
	if ent.err != nil {
		if IsTransient(ent.err) {
			// Drop exactly the entry we observed failing: a concurrent Get
			// may already have replaced it with a fresh (retrying) entry,
			// which must not be deleted out from under its builder.
			if cache.CompareAndDelete(key, e) {
				obsEntries.Dec()
				obsTransient.Inc()
			}
		}
		var zero T
		return zero, ent.err
	}
	return ent.val.(T), nil
}

// IsTransient reports whether err is a retryable build failure: an
// OS-level I/O error (path, syscall or link error), wrapped or not — with
// disk in the build path those depend on the machine's state at build
// time, not on the key.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var pe *os.PathError
	var se *os.SyscallError
	var le *os.LinkError
	return errors.As(err, &pe) || errors.As(err, &se) || errors.As(err, &le)
}

// Len returns the number of cached entries (tests and diagnostics).
func Len() int {
	n := 0
	cache.Range(func(any, any) bool { n++; return true })
	return n
}

// cycleBytes estimates the on-air footprint of a built value: cached
// servers and cached cycles both expose one. Anything else (graphs, border
// tables) reports zero — the metric tracks air bytes, not heap bytes.
func cycleBytes(val any) int64 {
	var c *broadcast.Cycle
	switch v := val.(type) {
	case *broadcast.Cycle:
		c = v
	case interface{ Cycle() *broadcast.Cycle }:
		c = v.Cycle()
	}
	if c == nil {
		return 0
	}
	return int64(c.Len()) * metrics.PacketBits / 8
}

// Flush drops every cached entry. Only tests need it.
func Flush() {
	cache.Range(func(k, _ any) bool { cache.Delete(k); return true })
	obsEntries.Set(0)
}
