package broadcast

import "repro/internal/packet"

// Plan is a client's reception plan, the paper's one rule for receiving
// data (Sections 4.2, 5.2 and 6.2): the runs of cycle positions its index
// names, which Tuner.Fetch receives, and the positions of those runs that
// arrived lost, which Tuner.Recover re-fetches in later cycles. Each run
// carries an ID of the client's choosing (a region, a cell) that comes
// back with every packet of it.
//
// The zero value is an empty plan. Fetch and Recover consume what they
// drain, so a plan is reused from query to query without reallocating; a
// query aborted part way (a budget, a cancelled context, an error of the
// client's own) leaves the rest behind, which Reset forgets.
type Plan struct {
	runs []run      // wanted, not yet fetched
	lost []position // arrived lost, not yet recovered
	q    arrivalQueue
}

// run is n consecutive positions from cycle position cyclePos.
type run struct{ id, cyclePos, n int32 }

// position is one cycle position of run id.
type position struct{ id, cyclePos int32 }

// Want adds the n positions from cycle position cyclePos to the next Fetch,
// tagged id. A run of n <= 0 positions is nothing to fetch and is dropped.
//
//air:noalloc
func (p *Plan) Want(id, cyclePos, n int) {
	if n > 0 {
		runs := p.runs
		runs = append(runs, run{int32(id), int32(cyclePos), int32(n)})
		p.runs = runs
	}
}

// Reset forgets the runs and losses a previous query left behind.
//
//air:noalloc
func (p *Plan) Reset() {
	p.runs = p.runs[:0]
	p.lost = p.lost[:0]
}

// lose keeps the position lost at cyclePos of run id for Recover.
func (p *Plan) lose(id int32, cyclePos int) {
	p.lost = append(p.lost, position{id, int32(cyclePos)})
}

// Fetch receives every run wanted since the last Fetch, the one that
// crosses the air next first (Arrival): on a single channel that is the
// cyclic broadcast order the paper prescribes; on a Hopping feed it
// interleaves channels so the radio always turns to the run it would wait
// least for. It sleeps to each run's next occurrence and receives the run
// as ListenSpan views, calling fn with the run's ID, the cycle position (at
// the view's own cycle length) and the packet of every position that
// arrives intact; the plan keeps the positions that arrive lost, for
// Recover. fn must not move the tuner; the packet is valid until fn
// returns.
//
//air:noalloc
func (t *Tuner) Fetch(p *Plan, fn func(id, cyclePos int, pk packet.Packet)) {
	runs := p.runs
	p.q.reset()
	for i, r := range runs {
		p.q.push(t, i, int(r.cyclePos))
	}
	for {
		i, ok := p.q.pop(t, func(i int) int { return int(runs[i].cyclePos) })
		if !ok {
			break
		}
		r := runs[i]
		t.SleepTo(t.NextOccurrence(int(r.cyclePos)))
		t.ListenSpan(int(r.n), func(abs int, pk packet.Packet, ok bool) {
			cp := abs % t.verLen // take has just noted the view's length
			if !ok {
				p.lose(r.id, cp)
				return
			}
			fn(int(r.id), cp, pk)
		})
	}
	p.runs = runs[:0]
}

// Recover re-fetches the positions Fetch kept as lost, in later cycles and
// in arrival order like Fetch, each with one Listen: a position lost again
// goes back into the order, behind every other position that crosses the
// air at the same time, until each has arrived intact. fn sees each
// position once, with the ID of the run it belongs to.
//
//air:noalloc
func (t *Tuner) Recover(p *Plan, fn func(id, cyclePos int, pk packet.Packet)) {
	lost := p.lost
	p.q.reset()
	for i, r := range lost {
		p.q.push(t, i, int(r.cyclePos))
	}
	for {
		i, ok := p.q.pop(t, func(i int) int { return int(lost[i].cyclePos) })
		if !ok {
			break
		}
		r := lost[i]
		t.SleepTo(t.NextOccurrence(int(r.cyclePos)))
		pk, ok := t.Listen()
		if !ok {
			p.q.push(t, i, int(r.cyclePos))
			continue
		}
		fn(int(r.id), int(r.cyclePos), pk)
	}
	p.lost = lost[:0]
}
