// Package fullcycle implements the reception strategy shared by every
// adapted competitor in the paper's Section 3.2 (Dijkstra, ArcFlag,
// Landmark, SPQ): selective tuning is impossible for them, so the client
// listens to the entire broadcast cycle and processes the query locally.
// Packets lost on air are re-listened in subsequent cycles until the whole
// cycle has been received intact.
package fullcycle

import (
	"repro/internal/broadcast"
	"repro/internal/packet"
)

// ReceiveAll listens to one full cycle starting at the tuner's current
// position, invoking handle for every intact packet with its cycle
// position. Lost positions are retried in later cycles, in arrival order,
// until none remain, so handle eventually sees every position exactly once.
func ReceiveAll(t *broadcast.Tuner, handle func(cyclePos int, p packet.Packet)) {
	l := t.CycleLen()
	var plan broadcast.Plan
	plan.Want(0, t.Pos()%l, l)
	fn := func(_, cyclePos int, p packet.Packet) { handle(cyclePos, p) }
	t.Fetch(&plan, fn)
	t.Recover(&plan, fn)
}
