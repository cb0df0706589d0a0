// Package update is the dynamic-network subsystem: versioned broadcast
// cycles over a road network whose arc weights change while the broadcast
// is live (traffic-aware deployments; the streaming direction the database
// surveys in PAPERS.md point static-snapshot systems toward).
//
// The paper's air-index schemes broadcast a static network. This package
// adds the server half a dynamic deployment needs on top of them:
//
//   - A Manager accepts a stream of edge-weight updates and rebuilds the
//     scheme's EB/NR/DJ structures into a new cycle version (the one build
//     path's Reweigh: the previous version lends its partition, the
//     parallel border pre-computation reruns), stamped with its version.
//   - The live station (internal/station, internal/multichannel) swaps to
//     the new cycle atomically — at a cycle boundary on one channel, at one
//     global tick across a channel group — announcing the version in every
//     packet header and in the directory meta records.
//   - Clients detect mid-query that the air swapped (the broadcast.Tuner's
//     version window, a hopping radio's Rx.Stale) and re-enter (Query).
//
// Versions are immutable once built: a (network, scheme, update-sequence)
// triple keys its build in the shared servercache, so a fuzzer or a fleet
// revisiting a version reuses it.
//
// With an empty update stream nothing happens at all: the Manager serves
// the scheme server's own cycle object, unstamped, so the static path
// stays bit-identical to the paper's model — the committed deterministic
// baselines (harness.TestLatencyVsKGolden, TestK1BitForBit) pin this.
package update

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/servercache"
)

// Package-level instruments (DESIGN.md §10).
var (
	obsRebuilds = obs.GetCounter("air_update_rebuilds_total",
		"cycle rebuilds committed (Apply calls that produced a new version)")
	obsRebuildSecs = obs.GetHistogram("air_update_rebuild_seconds",
		"wall time of one Apply (rebuild + version stamp)")
	obsVersion = obs.GetGauge("air_update_version",
		"cycle version most recently committed by any manager")
)

// Config tunes a Manager.
type Config struct {
	// Cache, when non-nil, keys every version's build in the shared
	// servercache and on its disk tier: Key.Version carries the cycle
	// version and the applied update sequence's signature is folded into
	// Key.Network — a re-weighed network is a different network — so
	// identical update histories (a fuzzer revisiting a seed, a restarted
	// experiment) share one build. Nil, as in a Deploy-built manager,
	// retains and persists nothing per version.
	Cache *servercache.Key
}

// Build is one immutable cycle version: the mutated network, the rebuilt
// server, and the versioned on-air cycle (the server's cycle with every
// packet stamped with Version).
type Build struct {
	Version uint32
	Graph   *graph.Graph
	Server  scheme.Server
	Cycle   *broadcast.Cycle
}

// Manager owns the server side of a versioned broadcast: the current
// network, the current scheme server, and the version counter. Apply is
// the single entry point for weight updates; everything it returns is
// immutable and safe to hand to stations, channels and caches. A Manager
// is safe for concurrent use.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	g       *graph.Graph
	srv     scheme.Server
	version uint32
	cycle   *broadcast.Cycle
	sig     uint64 // FNV-1a over the applied update history
}

// NewManager returns a manager serving srv's static cycle as version 0.
// srv must have been built over g, by a scheme that re-weighs natively (EB,
// NR, DJ).
func NewManager(g *graph.Graph, srv scheme.Server, cfg Config) (*Manager, error) {
	if !build.Reweighs(build.Method(srv.Name())) {
		return nil, fmt.Errorf("update: no rebuilder for scheme %s", srv.Name())
	}
	return &Manager{cfg: cfg, g: g, srv: srv, cycle: srv.Cycle()}, nil
}

// Version returns the current cycle version.
func (m *Manager) Version() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Graph returns the network underlying the current version.
func (m *Manager) Graph() *graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.g
}

// Cycle returns the on-air cycle of the current version: at version 0 the
// scheme server's own cycle object (bit-identical static path), afterwards
// the stamped rebuild.
func (m *Manager) Cycle() *broadcast.Cycle {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cycle
}

// Apply folds one batch of weight updates into the network and builds the
// next cycle version: mutate the graph (weight-only, validated), rebuild
// the scheme structures, stamp the rebuilt cycle with the new version. The
// current version is untouched until the whole build succeeds; on any
// error the manager keeps serving it.
//
// An empty batch is a pure version bump: the network is unchanged but the
// cycle re-stamps — useful for forcing clients through the swap path, and
// the identity the no-op fuzz corpus pins.
func (m *Manager) Apply(ups []graph.WeightUpdate) (*Build, error) {
	started := time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	m.mu.Lock()
	defer m.mu.Unlock()
	g2, err := m.g.WithWeights(ups)
	if err != nil {
		return nil, err
	}
	v2 := m.version + 1
	sig2 := foldSig(m.sig, ups)
	var key *servercache.Key
	if m.cfg.Cache != nil {
		k := *m.cfg.Cache
		k.Version, k.Network = v2, fmt.Sprintf("%s|updates=%016x", k.Network, sig2)
		key = &k
	}
	srv2, err := build.Reweigh(m.srv, g2, key)
	if err != nil {
		return nil, fmt.Errorf("update: rebuild v%d: %w", v2, err)
	}
	// The stamp goes on a copy the manager owns: the server's own cycle may
	// be shared through the servercache or mapped from its disk tier.
	built := srv2.Cycle()
	cyc := &broadcast.Cycle{Packets: slices.Clone(built.Packets), Sections: slices.Clone(built.Sections)}
	cyc.SetVersion(v2)
	m.g, m.srv, m.version, m.cycle, m.sig = g2, srv2, v2, cyc, sig2
	obsRebuilds.Inc()
	obsRebuildSecs.Observe(time.Since(started).Seconds()) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	obsVersion.Set(int64(v2))
	return &Build{
		Version: v2,
		Graph:   g2,
		Server:  srv2,
		Cycle:   cyc,
	}, nil
}

// foldSig folds a batch of updates into the running FNV-1a history
// signature: the cache identity of "this exact update sequence".
func foldSig(sig uint64, ups []graph.WeightUpdate) uint64 {
	if sig == 0 {
		sig = 0xcbf29ce484222325
	}
	step := func(v uint64) {
		for i := 0; i < 8; i++ {
			sig ^= (v >> (8 * i)) & 0xff
			sig *= 0x100000001b3
		}
	}
	for _, u := range ups {
		step(uint64(uint32(u.From))<<32 | uint64(uint32(u.To)))
		// Full float64 bits: the rebuild consumes the unquantized graph
		// (wire f32 rounding happens at encode time), so two histories that
		// differ only below f32 precision are still different builds.
		step(math.Float64bits(u.Weight))
	}
	step(uint64(len(ups)) | 1<<63) // batch boundary: {a}{b} != {a,b}
	return sig
}
