package core

import (
	"repro/internal/broadcast"
	"repro/internal/netdata"
)

// lostPos is one lost data packet awaiting recovery.
type lostPos struct{ region, cyclePos int32 }

// retry is a client's loss recovery (Section 6.2): the data packets lost on
// air so far, how many of each region's are still outstanding, and the
// arrival queue that orders both EB's span fetch and the re-fetches. A
// client keeps one across queries and resets it per query.
type retry struct {
	lost    []lostPos // append-only within a query: a queue entry's ID is its index
	pending []int     // pending[region]: lost packets of region not yet recovered
	q       broadcast.ArrivalQueue
}

// reset forgets the previous query's losses over n regions.
func (r *retry) reset(n int) {
	r.lost = r.lost[:0]
	r.pending = resizeCleared(r.pending, n)
}

// lose records region's data packet at cyclePos as lost on air.
func (r *retry) lose(region, cyclePos int) {
	r.lost = append(r.lost, lostPos{int32(region), int32(cyclePos)})
	r.pending[region]++
}

// recoverLost re-fetches every lost packet in later cycles, always waking for
// whichever outstanding one crosses the air next (on a multi-channel feed
// the channels' shorter cycles make a retry up to K times cheaper; on a
// single channel this is plain cyclic order), until each has arrived
// intact. done, when not nil, fires for a region as its last lost packet
// arrives.
func (r *retry) recoverLost(t *broadcast.Tuner, coll *netdata.Collector, done func(region int)) {
	lost := r.lost
	r.q.Reset()
	for i, lp := range lost {
		r.q.Push(t, i, int(lp.cyclePos))
	}
	nearestFirst(t, &r.q, func(i int) int { return int(lost[i].cyclePos) }, func(i int) {
		lp := lost[i]
		p, ok := t.Listen()
		if !ok {
			r.q.Push(t, i, int(lp.cyclePos))
			return
		}
		coll.Process(int(lp.cyclePos), p)
		r.pending[lp.region]--
		if r.pending[lp.region] == 0 && done != nil {
			done(int(lp.region))
		}
	})
}

// nearestFirst drains q in arrival order: it sleeps the tuner to each
// popped ID's next occurrence and hands the ID to fetch, which listens and
// may push IDs back.
func nearestFirst(t *broadcast.Tuner, q *broadcast.ArrivalQueue, cyclePos func(id int) int, fetch func(id int)) {
	for {
		id, ok := q.Pop(t, cyclePos)
		if !ok {
			return
		}
		t.SleepTo(t.NextOccurrence(cyclePos(id)))
		fetch(id)
	}
}
