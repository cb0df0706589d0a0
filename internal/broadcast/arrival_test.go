package broadcast

import "testing"

// WaitFor returns how many ticks the radio would wait before the packet at
// absolute logical position abs (>= Pos) crosses the air: the feed's own
// estimate on a hopping feed, the logical distance otherwise. It is the
// probe of NearestOf, the oracle arrivalQueue replaced.
func (t *Tuner) WaitFor(abs int) int {
	if t.hopping != nil {
		return t.hopping.WaitFor(abs)
	}
	return abs - t.pos
}

// NearestOf returns the index in [0, n) whose cycle position (as reported
// by cyclePos) next crosses the air, the lowest index on a tie: the greedy
// pick the span-fetch and loss-recovery loops once repeated by rescanning
// every outstanding position. Fetch and Recover must pick exactly what it
// picks (FuzzRecoveryOrder).
func (t *Tuner) NearestOf(n int, cyclePos func(int) int) int {
	best, bestWait := -1, 0
	for i := 0; i < n; i++ {
		w := t.WaitFor(t.NextOccurrence(cyclePos(i)))
		if best < 0 || w < bestWait {
			best, bestWait = i, w
		}
	}
	return best
}

// TestArrivalQueueZeroAlloc pins push and pop at zero allocations on a
// warmed-up, reused queue, over a lossy channel with the radio moving
// between the pushes and the pops, so the pops take the stale-key path too.
func TestArrivalQueueZeroAlloc(t *testing.T) {
	ch, err := NewChannel(allocCycle(t), 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tuner := NewTuner(ch, 3)
	cps := make([]int, 64)
	for i := range cps {
		cps[i] = (i * 37) % ch.Len()
	}
	cp := func(id int) int { return cps[id] }
	var q arrivalQueue // AllocsPerRun's warm-up run grows it
	if n := testing.AllocsPerRun(100, func() {
		for i, c := range cps {
			q.push(tuner, i, c)
		}
		tuner.Listen()
		tuner.Listen()
		for range cps {
			q.pop(tuner, cp)
		}
	}); n != 0 {
		t.Errorf("arrivalQueue push/pop allocates %v per round, want 0", n)
	}
	if _, ok := q.pop(tuner, cp); ok {
		t.Error("queue not empty after popping every push")
	}
}
