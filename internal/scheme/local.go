package scheme

import (
	"time"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/spath"
)

// Local is the client-side frame every method's client embeds. Each of the
// paper's clients ends a query the same way: the received packets go into a
// partial network, one local search runs over it, and the Section 3.1
// factors are reported. Local holds what that ending needs — the query's
// memory tracker and CPU total, and the collector and search a client reuses
// from query to query — so a client keeps only its own index decoding and
// search variant. A client with a Local is not safe for concurrent use.
type Local struct {
	// Mem is the query's client working set (PeakMemBytes).
	Mem metrics.Mem

	cpu     time.Duration
	started time.Time
	coll    *netdata.Collector
	search  spath.Search
	plan    broadcast.Plan
}

// Begin starts a query: the memory tracker and the CPU total restart at
// zero.
func (l *Local) Begin() {
	l.Mem = metrics.Mem{}
	l.cpu = 0
}

// Collector returns the frame's collector, emptied for an ID space of n
// nodes (0 when the client learns it from the data) and charging the
// query's memory.
func (l *Local) Collector(n int) *netdata.Collector {
	if l.coll == nil {
		l.coll = netdata.NewCollector(n, &l.Mem)
	} else {
		l.coll.Reset(n, &l.Mem)
	}
	return l.coll
}

// Net returns the partial network the collector holds: what the current
// (or last) query received.
func (l *Local) Net() *spath.SubNetwork { return l.coll.Net }

// ReceiveCycle is the reception of every adapted competitor of Section 3.2
// that cannot tune selectively: it listens to one full cycle from the
// tuner's position into an emptied collector, and re-listens to the
// positions lost on air in later cycles, in arrival order, until every
// position has arrived intact. aux, when not nil, sees each intact packet
// with its cycle position once, after the collector; the packet is valid
// until aux returns.
func (l *Local) ReceiveCycle(t *broadcast.Tuner, aux func(cyclePos int, p packet.Packet)) {
	coll := l.Collector(0)
	receive := func(_, cyclePos int, p packet.Packet) {
		coll.Process(cyclePos, p)
		if aux != nil {
			aux(cyclePos, p)
		}
	}
	n := t.CycleLen()
	l.plan.Reset()
	l.plan.Want(0, t.Pos()%n, n)
	t.Fetch(&l.plan, receive)
	t.Recover(&l.plan, receive)
}

// StartCPU starts the stopwatch of the client's computation. Intervals
// do not nest: each StartCPU is closed by one StopCPU before the next.
func (l *Local) StartCPU() {
	l.started = time.Now() //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
}

// StopCPU adds the time since StartCPU to the query's CPU total.
func (l *Local) StopCPU() {
	l.cpu += time.Since(l.started) //air:nondeterministic "stats timing only; measured wall time is reported, never encoded or steering"
}

// Dijkstra charges the search's labels to the query's memory and runs the
// network kernel from s to t over net on the frame's reused search: A*
// when lb is not nil (spath.Search.RunNetwork). It returns t's distance and
// path.
func (l *Local) Dijkstra(net *spath.SubNetwork, s, t graph.NodeID, lb func(graph.NodeID) float64) spath.Result {
	l.Mem.Alloc(metrics.DistEntryBytes * net.NumPresent())
	l.search.RunNetwork(net, s, t, lb)
	return l.search.To(s, t)
}

// Result reports the query's answer with its Section 3.1 factors: the
// tuner's tuning time and access latency, the peak working set and the CPU
// total.
func (l *Local) Result(t *broadcast.Tuner, dist float64, path []graph.NodeID) Result {
	return Result{
		Dist: dist,
		Path: path,
		Metrics: metrics.Query{
			TuningPackets:  t.Tuning(),
			LatencyPackets: t.Latency(),
			PeakMemBytes:   l.Mem.Peak(),
			CPU:            l.cpu,
		},
	}
}
