// Package djair adapts Dijkstra's algorithm to the broadcast model
// (paper Section 3.2): the broadcast cycle carries only the road network —
// the shortest possible cycle — and the client listens to all of it, then
// runs Dijkstra locally over the complete network. Tuning time and memory
// are maximal; the cycle (and hence worst-case access latency) is minimal.
package djair

import (
	"io"
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/scheme"
)

// Server is the Dijkstra method's broadcast side.
type Server struct {
	g     *graph.Graph
	cycle *broadcast.Cycle
}

// New assembles the data-only cycle for g.
func New(g *graph.Graph) *Server {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	asm := broadcast.NewAssembler()
	asm.Append(packet.KindData, -1, "network", netdata.EncodeNodes(g, nodes, nil, nil))
	return &Server{g: g, cycle: asm.Finish()}
}

// WriteCycle streams the data-only DJ cycle for g to w in the broadcast
// cycle-file format without materializing it: a count-only pass fixes the
// layout, then packets are encoded and written in small batches. The bytes
// decode (broadcast.DecodeCycle) to exactly New(g).Cycle() with
// SetVersion(version) applied. This is the continent-scale build path: peak
// memory stays flat in the cycle size.
func WriteCycle(w io.Writer, g *graph.Graph, version uint32) error {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	total := netdata.CountNodes(g, nodes, nil, nil)
	cw, err := broadcast.NewCycleWriter(w, total, nil, version)
	if err != nil {
		return err
	}
	if _, err := cw.BeginSection(packet.KindData, -1, "network"); err != nil {
		return err
	}
	if err := netdata.StreamNodes(g, nodes, nil, nil, 1024, cw.Emit); err != nil {
		return err
	}
	return cw.Close()
}

// FromCycle wraps an already-built cycle (typically decoded from a disk
// cache entry whose payload is mmap'd) as a DJ server for g, skipping
// assembly entirely.
func FromCycle(g *graph.Graph, cycle *broadcast.Cycle) *Server {
	return &Server{g: g, cycle: cycle}
}

// Name implements scheme.Server.
func (s *Server) Name() string { return "DJ" }

// Cycle implements scheme.Server.
func (s *Server) Cycle() *broadcast.Cycle { return s.cycle }

// PrecomputeTime implements scheme.Server: Dijkstra broadcasts raw network
// data and pre-computes nothing.
func (s *Server) PrecomputeTime() time.Duration { return 0 }

// NewClient implements scheme.Server.
func (s *Server) NewClient() scheme.Client { return &Client{} }

// Client receives the entire cycle and searches the full network. Its
// collector and search are reused across queries (scheme.Local).
type Client struct{ scheme.Local }

// Name implements scheme.Client.
func (c *Client) Name() string { return "DJ" }

// Query implements scheme.Client.
func (c *Client) Query(t *broadcast.Tuner, q scheme.Query) (scheme.Result, error) {
	c.Begin()
	c.ReceiveCycle(t, nil)
	c.StartCPU()
	r := c.Dijkstra(c.Net(), q.S, q.T, nil)
	c.StopCPU()
	return c.Result(t, r.Dist, r.Path), nil
}
