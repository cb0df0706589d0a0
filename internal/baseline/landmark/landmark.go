// Package landmark adapts the Landmark (ALT) method [4] to the broadcast
// model (paper Section 3.2). The server picks a few anchor nodes with the
// farthest-point heuristic and pre-computes every node's distance vector to
// them; the triangle inequality then yields an admissible lower bound that
// guides A* at the client. Like ArcFlag, the client must receive the whole
// cycle (network data plus all distance vectors); on loss, a node with a
// missing vector contributes a bound of 0 (Section 6.2).
package landmark

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// Options configure the Landmark adaptation.
type Options struct {
	// Landmarks is the number of anchors (the paper fine-tunes 4).
	Landmarks int
}

// Server is the Landmark broadcast side.
type Server struct {
	opts  Options
	g     *graph.Graph
	marks []graph.NodeID
	vecs  [][]float64 // vecs[l][v] = d(landmark l -> v)
	cycle *broadcast.Cycle
	pre   time.Duration
}

// New selects landmarks, computes distance vectors and assembles the cycle.
func New(g *graph.Graph, opts Options) (*Server, error) {
	if opts.Landmarks == 0 {
		opts.Landmarks = 4
	}
	if opts.Landmarks > g.NumNodes() {
		return nil, fmt.Errorf("landmark: %d landmarks exceed %d nodes", opts.Landmarks, g.NumNodes())
	}
	s := &Server{opts: opts, g: g}
	start := time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	s.selectAndCompute()
	s.pre = time.Since(start) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	s.assemble()
	return s, nil
}

// selectAndCompute applies the farthest-point heuristic: the first landmark
// is the node farthest from node 0; each next landmark maximizes the
// minimum distance to those already chosen.
func (s *Server) selectAndCompute() {
	var search spath.Search
	distances := func(src graph.NodeID) []float64 {
		search.Run(s.g, spath.Out, src, graph.Invalid)
		return slices.Clone(search.Dist[:s.g.NumNodes()])
	}
	d0 := distances(0)
	first := graph.NodeID(0)
	for v, d := range d0 {
		if !math.IsInf(d, 1) && d > d0[first] {
			first = graph.NodeID(v)
		}
	}
	s.marks = []graph.NodeID{first}
	s.vecs = [][]float64{distances(first)}
	for len(s.marks) < s.opts.Landmarks {
		best, bestMin := graph.NodeID(0), -1.0
		for v := 0; v < s.g.NumNodes(); v++ {
			mn := math.Inf(1)
			for _, vec := range s.vecs {
				mn = math.Min(mn, vec[v])
			}
			if !math.IsInf(mn, 1) && mn > bestMin {
				best, bestMin = graph.NodeID(v), mn
			}
		}
		s.marks = append(s.marks, best)
		s.vecs = append(s.vecs, distances(best))
	}
}

func (s *Server) assemble() {
	nodes := make([]graph.NodeID, s.g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	asm := broadcast.NewAssembler()
	asm.Append(packet.KindData, -1, "network", netdata.EncodeNodes(s.g, nodes, nil, nil))

	// Distance vectors in separate packets from the adjacency data
	// (Section 6.2).
	w := packet.NewWriter(packet.KindAux)
	var lm packet.Enc
	lm.U8(uint8(len(s.marks)))
	for _, m := range s.marks {
		lm.U32(uint32(m))
	}
	w.Add(packet.TagLandmarkPos, lm.Bytes())
	for v := 0; v < s.g.NumNodes(); v++ {
		var e packet.Enc
		e.U32(uint32(v))
		e.U8(uint8(len(s.vecs)))
		for _, vec := range s.vecs {
			e.F32(vec[v])
		}
		w.Add(packet.TagLandmarkVec, e.Bytes())
	}
	asm.Append(packet.KindAux, -1, "vectors", w.Packets())
	s.cycle = asm.Finish()
}

// Name implements scheme.Server.
func (s *Server) Name() string { return "LD" }

// Cycle implements scheme.Server.
func (s *Server) Cycle() *broadcast.Cycle { return s.cycle }

// PrecomputeTime implements scheme.Server.
func (s *Server) PrecomputeTime() time.Duration { return s.pre }

// NewClient implements scheme.Server.
func (s *Server) NewClient() scheme.Client { return &Client{} }

// Client receives the whole cycle and runs landmark-guided A*. Its
// collector and search are reused across queries (scheme.Local), and so is
// the table it decodes the distance vectors into.
type Client struct {
	scheme.Local

	// vecs[v*k:(v+1)*k] is node v's distance vector while has[v]; k is the
	// length of the query's first vector record, -1 before it arrives.
	vecs []float64
	has  []bool
	k    int
	tv   []float64 // the target's vector; nil when lost
}

// Name implements scheme.Client.
func (c *Client) Name() string { return "LD" }

// Query implements scheme.Client.
func (c *Client) Query(t *broadcast.Tuner, q scheme.Query) (scheme.Result, error) {
	c.Begin()
	clear(c.has)
	c.k = -1
	c.ReceiveCycle(t, func(_ int, p packet.Packet) {
		for rec := range packet.All(p.Payload) {
			if rec.Tag == packet.TagLandmarkVec {
				c.decode(rec.Data)
			}
		}
	})

	c.StartCPU()
	c.tv = c.vector(q.T) // nil when lost: every bound degrades to 0
	// A* over the network kernel stays exact under this bound even where
	// lost vectors make it inconsistent.
	res := c.Dijkstra(c.Net(), q.S, q.T, c.bound)
	c.StopCPU()
	return c.Result(t, res.Dist, res.Path), nil
}

// decode stores one vector record. A record whose length differs from the
// query's first is dropped like a lost one.
func (c *Client) decode(data []byte) {
	d := packet.NewDec(data)
	v := int(d.U32())
	k := int(d.U8())
	if d.Err() || c.k >= 0 && k != c.k {
		return
	}
	c.k = k
	if v >= len(c.has) {
		n := max(v+1, 2*len(c.has))
		c.has = append(c.has, make([]bool, n-len(c.has))...)
	}
	if need := len(c.has) * k; len(c.vecs) < need {
		c.vecs = append(c.vecs, make([]float64, need-len(c.vecs))...)
	}
	vec := c.vecs[v*k : (v+1)*k]
	for i := range vec {
		vec[i] = d.F32()
	}
	if !d.Err() {
		c.has[v] = true
		c.Mem.Alloc(metrics.VecEntryBytes * k)
	}
}

// vector returns node v's distance vector, nil when it was not received.
func (c *Client) vector(v graph.NodeID) []float64 {
	if int(v) >= len(c.has) || !c.has[v] {
		return nil
	}
	i := int(v) * c.k
	return c.vecs[i : i+c.k]
}

// bound is the A* lower bound toward the query's target: over the landmarks
// L, |d(L,v) - d(L,t)| <= d(v,t) on symmetric networks.
func (c *Client) bound(v graph.NodeID) float64 {
	vv := c.vector(v)
	best := 0.0
	for l := 0; l < len(vv) && l < len(c.tv); l++ {
		if b := math.Abs(vv[l] - c.tv[l]); b > best {
			best = b
		}
	}
	return best
}
