package broadcast

// arrivalQueue orders outstanding cycle positions by when they next cross
// the air: the reception order of Tuner.Fetch and Tuner.Recover. pop
// returns the entry with the smallest (arrival, push sequence) in
// O(log n): the nearest outstanding position, the earliest pushed on a
// tie, with a re-pushed entry counting as pushed last.
//
// Keys are arrivals computed at push time. They go stale as the radio
// moves, but only later (Tuner.Arrival, Hopping.WaitFor), so a stale key is
// a lower bound: pop recomputes the minimum's arrival and, when it moved,
// sifts the entry down and looks again. A cycle-length change (a swap)
// breaks the lower bound, so pop re-keys every entry first when the feed's
// length differs from the one the keys were computed at.
//
// An entry is an ID the caller chooses (an index into its own list of
// outstanding items); pop asks the caller for an ID's cycle position
// instead of storing a copy. The zero value is an empty queue; reset keeps
// the backing array, so a Plan reused across queries stops allocating once
// it has seen its largest loss set.
type arrivalQueue struct {
	h   []arrivalEntry
	seq uint32 // next push sequence
	// cycleLen is the cycle length every key was computed at, or -1 when
	// keys of two lengths are mixed.
	cycleLen int
}

// arrivalEntry is one outstanding ID: 16 bytes.
type arrivalEntry struct {
	at  int    // arrival at push time or at the last re-key
	seq uint32 // push order: the tie-break
	id  int32
}

func (e arrivalEntry) less(o arrivalEntry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// reset empties the queue, keeping its backing array.
func (q *arrivalQueue) reset() {
	q.h = q.h[:0]
	q.seq = 0
}

// push adds id, whose packet sits at cycle position cyclePos, behind every
// entry already pushed with the same arrival.
//
//air:noalloc
func (q *arrivalQueue) push(t *Tuner, id, cyclePos int) {
	at, l := t.Arrival(cyclePos)
	h := q.h
	if len(h) == 0 {
		q.cycleLen = l
	} else if l != q.cycleLen {
		q.cycleLen = -1
	}
	h = append(h, arrivalEntry{at: at, seq: q.seq, id: int32(id)})
	q.seq++
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.h = h
}

// pop removes and returns the ID that crosses the air next, cyclePos
// mapping an ID back to its cycle position; ok is false when the queue is
// empty.
//
//air:noalloc
func (q *arrivalQueue) pop(t *Tuner, cyclePos func(id int) int) (id int, ok bool) {
	h := q.h
	if len(h) == 0 {
		return 0, false
	}
	for {
		at, l := t.Arrival(cyclePos(int(h[0].id)))
		if l != q.cycleLen {
			for i := range h {
				h[i].at, _ = t.Arrival(cyclePos(int(h[i].id)))
			}
			for i := len(h)/2 - 1; i >= 0; i-- {
				down(h, i)
			}
			q.cycleLen = l
			continue
		}
		if at == h[0].at {
			break
		}
		h[0].at = at
		down(h, 0)
	}
	id = int(h[0].id)
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	down(h, 0)
	q.h = h
	return id, true
}

// down sifts h[i] towards the leaves until neither child is smaller.
func down(h []arrivalEntry, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].less(h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].less(h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
