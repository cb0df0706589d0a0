package core

import (
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/netdata"
	"repro/internal/partition"
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
	kd     *partition.KDTree
	coll   *netdata.Collector
	q      scheme.Query
	rs     int
	rt     int
	cpu    *time.Duration
	sk     *skeleton
	search *spath.Search
}

// skeleton is the contraction's scratch, held by the client and reused
// from region to region and query to query.
type skeleton struct {
	net       spath.SubNetwork // the region's received nodes and in-region arcs
	nodes     []graph.NodeID   // the region's received nodes
	terminals []graph.NodeID
	// mark[v] is the epoch of the last walk through v. Each contraction
	// starts a new epoch for its terminals and one per source, so a walk
	// stops where an earlier walk from the same source joined the tree, and
	// the contraction keeps every node marked since it began.
	mark  []uint32
	epoch uint32
}

func newContractor(kd *partition.KDTree, coll *netdata.Collector, q scheme.Query, rs, rt int, cpu *time.Duration, sk *skeleton, search *spath.Search) *contractor {
	return &contractor{kd: kd, coll: coll, q: q, rs: rs, rt: rt, cpu: cpu, sk: sk, search: search}
}

// contract reduces the received region to its shortest-path skeleton and
// releases every other node of the region.
func (c *contractor) contract(region int) {
	start := time.Now()                            //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
	defer func() { *c.cpu += time.Since(start) }() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"

	sk, full := c.sk, c.coll.Net
	n := full.NumNodes()
	sk.net.Reset(n)
	sk.nodes, sk.terminals = sk.nodes[:0], sk.terminals[:0]
	full.ForEach(func(v graph.NodeID) {
		x, y, _ := full.Pos(v)
		if c.kd.RegionOf(x, y) != region {
			return
		}
		sk.net.AddNode(v, x, y, nil)
		sk.nodes = append(sk.nodes, v)
		if c.coll.IsBorder(v) {
			sk.terminals = append(sk.terminals, v)
		}
	})
	for _, v := range sk.nodes {
		for _, a := range full.Arcs(v) {
			if sk.net.Has(a.To) {
				sk.net.AddArc(v, a.To, a.Weight)
			}
		}
	}
	if region == c.rs && sk.net.Has(c.q.S) && !c.coll.IsBorder(c.q.S) {
		sk.terminals = append(sk.terminals, c.q.S)
	}
	if region == c.rt && sk.net.Has(c.q.T) && !c.coll.IsBorder(c.q.T) && c.q.T != c.q.S {
		sk.terminals = append(sk.terminals, c.q.T)
	}

	// The skeleton is every terminal and every node on a shortest path
	// between two terminals inside the region: from each terminal's tree,
	// the parent walks up from the other terminals.
	if len(sk.mark) < n {
		sk.mark = make([]uint32, n)
		sk.epoch = 0
	}
	if sk.epoch > math.MaxUint32-uint32(len(sk.terminals))-1 {
		clear(sk.mark)
		sk.epoch = 0
	}
	sk.epoch++
	base := sk.epoch
	for _, t := range sk.terminals {
		sk.mark[t] = base
	}
	for _, src := range sk.terminals {
		c.search.RunNetwork(&sk.net, src, graph.Invalid, nil)
		sk.epoch++
		for _, t := range sk.terminals {
			for v := t; v != graph.Invalid && sk.mark[v] != sk.epoch; v = c.search.Parent[v] {
				sk.mark[v] = sk.epoch
			}
		}
	}

	// Release everything off the skeleton.
	for _, v := range sk.nodes {
		if sk.mark[v] < base {
			c.coll.Release(v)
		}
	}
}
