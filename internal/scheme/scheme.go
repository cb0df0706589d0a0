// Package scheme defines the common contract every air-index method
// implements: a server side that pre-computes and assembles a broadcast
// cycle, and a client side that answers shortest-path queries by tuning
// into a channel carrying that cycle.
package scheme

import (
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Query is one shortest-path request. The client knows the source and
// target node IDs and their coordinates (the user's GPS position and the
// destination address); region identification uses the coordinates, the
// final search uses the IDs.
type Query struct {
	S, T   graph.NodeID
	SX, SY float64
	TX, TY float64
}

// QueryFor builds a Query for two nodes of g.
func QueryFor(g interface {
	Node(graph.NodeID) graph.Node
}, s, t graph.NodeID) Query {
	ns, nt := g.Node(s), g.Node(t)
	return Query{S: s, T: t, SX: ns.X, SY: ns.Y, TX: nt.X, TY: nt.Y}
}

// Result is the outcome of one on-air query.
type Result struct {
	Dist    float64
	Path    []graph.NodeID
	Metrics metrics.Query
}

// Server is the broadcast-side half of a method: pre-computation plus cycle
// assembly.
type Server interface {
	// Name returns the method's short name (DJ, EB, NR, AF, LD, HiTi, SPQ).
	Name() string
	// Cycle returns the assembled broadcast cycle.
	Cycle() *broadcast.Cycle
	// PrecomputeTime returns the server-side pre-computation time
	// (Table 3); cycle serialization is excluded, matching the paper's
	// focus on shortest-path pre-calculation.
	PrecomputeTime() time.Duration
	// NewClient returns a client for this method. A client answers a
	// stream of queries and keeps its scratch state (Local and its own
	// decode buffers) from one query to the next, so it is not safe for
	// concurrent use: give each goroutine its own.
	NewClient() Client
}

// Client answers queries against a tuner. Implementations must work with
// lossy channels: lost packets cost tuning time and are recovered in later
// cycles per the method's Section 6.2 strategy.
type Client interface {
	Name() string
	Query(t *broadcast.Tuner, q Query) (Result, error)
}
