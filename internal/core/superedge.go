package core

import (
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netdata"
	"repro/internal/partition"
	"repro/internal/pq"
	"repro/internal/scheme"
	"repro/internal/spath"
)

// contractor implements the memory-bound processing of Section 6.1: as soon
// as a needed region has been fully received, the client pre-computes the
// shortest paths between the region's border nodes (plus the query
// terminals in the terminal regions) inside the region, keeps exactly those
// paths — the union forms the region's shortest-path skeleton — and
// discards the rest of the region's data.
//
// The paper phrases the retained information as super-edges annotated with
// their underlying paths. Storing one path per border pair duplicates the
// heavily shared path segments (within a region, border-to-border paths
// form trees), so this implementation retains the union as a sub-graph
// instead: the same information ("only the local shortest paths can be
// kept in memory") at a fraction of the footprint, and the final Dijkstra
// runs directly over the retained skeleton — no super-edge expansion step.
// Border nodes adjacent only to irrelevant regions still contribute their
// skeleton, which subsumes the paper's white-region border optimization.
type contractor struct {
	kd   *partition.KDTree
	coll *netdata.Collector
	q    scheme.Query
	rs   int
	rt   int
	mem  *metrics.Mem
	cpu  *time.Duration
}

func newContractor(kd *partition.KDTree, coll *netdata.Collector, q scheme.Query, rs, rt int, mem *metrics.Mem, cpu *time.Duration) *contractor {
	return &contractor{kd: kd, coll: coll, q: q, rs: rs, rt: rt, mem: mem, cpu: cpu}
}

// contract reduces the received region to its shortest-path skeleton and
// releases every other node of the region.
func (c *contractor) contract(region int) {
	start := time.Now()                            //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	defer func() { *c.cpu += time.Since(start) }() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"

	inRegion := make(map[graph.NodeID]bool)
	var terminals []graph.NodeID
	c.coll.Net.ForEach(func(v graph.NodeID) {
		x, y, _ := c.coll.Net.Pos(v)
		if c.kd.RegionOf(x, y) != region {
			return
		}
		inRegion[v] = true
		if c.coll.IsBorder(v) {
			terminals = append(terminals, v)
		}
	})
	if region == c.rs && inRegion[c.q.S] && !c.coll.IsBorder(c.q.S) {
		terminals = append(terminals, c.q.S)
	}
	if region == c.rt && inRegion[c.q.T] && !c.coll.IsBorder(c.q.T) && c.q.T != c.q.S {
		terminals = append(terminals, c.q.T)
	}
	sort.Slice(terminals, func(i, j int) bool { return terminals[i] < terminals[j] })

	// keep accumulates the skeleton: every node on a shortest path between
	// two terminals inside the region.
	keep := make(map[graph.NodeID]bool, len(terminals))
	isTerminal := make(map[graph.NodeID]bool, len(terminals))
	for _, t := range terminals {
		keep[t] = true
		isTerminal[t] = true
	}
	for _, src := range terminals {
		parent, order := regionDijkstra(c.coll.Net, inRegion, src)
		// Mark ancestors of terminal targets, walking the settle order
		// backwards (parents settle before children).
		onPath := make(map[graph.NodeID]bool, len(order))
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if isTerminal[v] && v != src {
				onPath[v] = true
			}
			if onPath[v] {
				keep[v] = true
				if p := parent[v]; p != graph.Invalid {
					onPath[p] = true
				}
			}
		}
	}

	// Release everything off the skeleton.
	for v := range inRegion { //air:nondeterministic "Release drops nodes one by one; the final collector state is order-independent"
		if !keep[v] {
			c.coll.Release(v)
		}
	}
}

// regionDijkstra runs Dijkstra from src over the received sub-network,
// restricted to nodes of one region. It allocates proportionally to the
// region size, not the network size — the device is memory-bound. It
// returns the parent map and the settle order.
func regionDijkstra(net *spath.SubNetwork, inRegion map[graph.NodeID]bool, src graph.NodeID) (map[graph.NodeID]graph.NodeID, []graph.NodeID) {
	// Assign local indices in sorted node order, not map order: the index
	// breaks priority-queue ties, so map iteration here would let the
	// process-random map seed pick between equal-length paths.
	nodes := make([]graph.NodeID, 0, len(inRegion))
	for v := range inRegion {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	local := make(map[graph.NodeID]int32, len(inRegion))
	for i, v := range nodes {
		local[v] = int32(i)
	}
	dist := make([]float64, len(nodes))
	parent := make([]graph.NodeID, len(nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = graph.Invalid
	}
	h := pq.New(len(nodes))
	dist[local[src]] = 0
	h.Push(local[src], 0)
	order := make([]graph.NodeID, 0, len(nodes))
	for h.Len() > 0 {
		li, d := h.Pop()
		v := nodes[li]
		order = append(order, v)
		for _, a := range net.Arcs(v) {
			lu, ok := local[a.To]
			if !ok {
				continue
			}
			nd := d + a.Weight
			if nd < dist[lu] {
				dist[lu] = nd
				parent[lu] = v
				h.PushOrDecrease(lu, nd)
			}
		}
	}
	parentOut := make(map[graph.NodeID]graph.NodeID, len(order))
	for i, v := range nodes {
		if parent[i] != graph.Invalid || v == src {
			parentOut[v] = parent[i]
		}
	}
	return parentOut, order
}
