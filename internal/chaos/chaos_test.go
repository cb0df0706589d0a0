package chaos

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// frames builds a deterministic stream of n distinct datagrams.
func frames(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("datagram-%04d-padding-padding", i))
	}
	return out
}

// replay runs a plan over a frame stream and flattens the delivered
// datagrams.
func replay(t *testing.T, p Plan, in [][]byte) ([][]byte, Stats) {
	t.Helper()
	inj, err := NewInjector(p)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	var out [][]byte
	for _, f := range in {
		out = append(out, inj.Apply(f)...)
	}
	if inj.held != nil { // held back by a reorder at stream end
		out = append(out, inj.held)
	}
	return out, inj.Stats()
}

// TestInjectorDeterministicReplay is the load-bearing property of the whole
// package: two injectors with the same plan fed the same stream emit
// identical datagram sequences and identical damage counts. Every chaos run
// is replayable from its seed.
func TestInjectorDeterministicReplay(t *testing.T) {
	plan := Plan{
		Seed:     42,
		PGoodBad: 0.1, PBadGood: 0.3,
		LossGood: 0.02, LossBad: 0.6,
		Corrupt: 0.05, Duplicate: 0.05, Reorder: 0.1,
		BlackholeEvery: 200, BlackholeLen: 15,
	}
	in := frames(2000)
	a, sa := replay(t, plan, in)
	b, sb := replay(t, plan, in)
	if sa != sb {
		t.Fatalf("stats diverge between identical runs:\n  %v\n  %v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("delivered %d vs %d datagrams between identical runs", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("datagram %d differs between identical runs", i)
		}
	}
	// The plan above must actually have exercised every fault family,
	// otherwise the replay assertion is vacuous.
	if sa.Dropped == 0 || sa.Blackholed == 0 || sa.Corrupted == 0 || sa.Duplicated == 0 || sa.Reordered == 0 {
		t.Fatalf("plan did not exercise every fault family: %v", sa)
	}
	if sa.Datagrams != uint64(len(in)) {
		t.Fatalf("counted %d datagrams, offered %d", sa.Datagrams, len(in))
	}
}

// TestInjectorSeedChangesSequence guards against a seed that silently does
// nothing: different seeds must produce different fault patterns.
func TestInjectorSeedChangesSequence(t *testing.T) {
	in := frames(500)
	p := Plan{Seed: 1, LossGood: 0.3}
	q := p
	q.Seed = 2
	a, _ := replay(t, p, in)
	b, _ := replay(t, q, in)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical fault sequences")
		}
	}
}

// TestInjectorTransparent: the zero plan is a wire, not a filter.
func TestInjectorTransparent(t *testing.T) {
	in := frames(100)
	out, st := replay(t, Plan{}, in)
	if len(out) != len(in) {
		t.Fatalf("transparent plan delivered %d of %d datagrams", len(out), len(in))
	}
	for i := range in {
		if !bytes.Equal(out[i], in[i]) {
			t.Fatalf("transparent plan mutated datagram %d", i)
		}
	}
	if st.Dropped+st.Blackholed+st.Corrupted+st.Duplicated+st.Reordered != 0 {
		t.Fatalf("transparent plan reported damage: %v", st)
	}
	if (Plan{}).Enabled() {
		t.Fatal("zero plan reports Enabled")
	}
}

// TestInjectorDuplicate: a pure-duplication plan delivers every original in
// order plus the duplicates, and never loses a byte.
func TestInjectorDuplicate(t *testing.T) {
	in := frames(1000)
	out, st := replay(t, Plan{Seed: 7, Duplicate: 0.2}, in)
	if st.Duplicated == 0 {
		t.Fatal("20% duplication over 1000 datagrams duplicated nothing")
	}
	if got, want := len(out), len(in)+int(st.Duplicated); got != want {
		t.Fatalf("delivered %d datagrams, want %d (%d in + %d dup)", got, want, len(in), st.Duplicated)
	}
	// Every delivered datagram is one of the originals, and originals stay
	// in order (duplicates ride directly behind their original).
	next := 0
	for _, d := range out {
		if next < len(in) && bytes.Equal(d, in[next]) {
			next++
		}
	}
	if next != len(in) {
		t.Fatalf("originals out of order: matched %d of %d in sequence", next, len(in))
	}
}

// TestInjectorReorder: reordering holds a datagram back exactly one slot
// and never loses it — the delivered stream is a permutation of the input.
func TestInjectorReorder(t *testing.T) {
	in := frames(1000)
	out, st := replay(t, Plan{Seed: 9, Reorder: 0.3}, in)
	if st.Reordered == 0 {
		t.Fatal("30% reorder over 1000 datagrams reordered nothing")
	}
	if len(out) != len(in) {
		t.Fatalf("reorder lost datagrams: %d in, %d out", len(in), len(out))
	}
	seen := make(map[string]int)
	for _, d := range in {
		seen[string(d)]++
	}
	for _, d := range out {
		seen[string(d)]--
	}
	for k, v := range seen {
		if v != 0 {
			t.Fatalf("reorder is not a permutation: %q off by %d", k, v)
		}
	}
}

// TestInjectorCorrupt: corruption flips exactly one bit — the damaged
// datagram differs from the original in exactly one position by a power of
// two.
func TestInjectorCorrupt(t *testing.T) {
	in := frames(1000)
	out, st := replay(t, Plan{Seed: 3, Corrupt: 0.2}, in)
	if st.Corrupted == 0 {
		t.Fatal("20% corruption over 1000 datagrams corrupted nothing")
	}
	if len(out) != len(in) {
		t.Fatalf("corruption changed delivery count: %d in, %d out", len(in), len(out))
	}
	var flipped uint64
	for i := range out {
		diff := 0
		for j := range out[i] {
			if x := out[i][j] ^ in[i][j]; x != 0 {
				diff++
				if x&(x-1) != 0 {
					t.Fatalf("datagram %d byte %d differs by %#x — more than one bit", i, j, x)
				}
			}
		}
		if diff > 1 {
			t.Fatalf("datagram %d differs in %d bytes, want at most 1", i, diff)
		}
		if diff == 1 {
			flipped++
		}
	}
	if flipped != st.Corrupted {
		t.Fatalf("found %d corrupted datagrams, stats say %d", flipped, st.Corrupted)
	}
}

// TestInjectorBlackhole: the periodic window swallows exactly BlackholeLen
// of every BlackholeEvery datagrams, at the start of each period.
func TestInjectorBlackhole(t *testing.T) {
	const every, length, periods = 50, 10, 8
	in := frames(every * periods)
	out, st := replay(t, Plan{Seed: 5, BlackholeEvery: every, BlackholeLen: length}, in)
	if want := uint64(length * periods); st.Blackholed != want {
		t.Fatalf("blackholed %d datagrams, want %d", st.Blackholed, want)
	}
	if want := (every - length) * periods; len(out) != want {
		t.Fatalf("delivered %d datagrams, want %d", len(out), want)
	}
	// First survivor of each period is the one right after the window.
	if !bytes.Equal(out[0], in[length]) {
		t.Fatalf("first survivor is %q, want %q", out[0], in[length])
	}
}

// TestInjectorBurstyLoss: in a plan where only the bad state drops, losses
// must arrive in runs (that is the point of Gilbert-Elliott) and the loss
// rate must sit between the two per-state rates.
func TestInjectorBurstyLoss(t *testing.T) {
	plan := Plan{Seed: 11, PGoodBad: 0.02, PBadGood: 0.2, LossGood: 0, LossBad: 1}
	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var dropped, bursts int
	prevDropped := false
	for i := 0; i < n; i++ {
		delivered := inj.Apply([]byte{byte(i)})
		if len(delivered) == 0 {
			dropped++
			if !prevDropped {
				bursts++
			}
			prevDropped = true
		} else {
			prevDropped = false
		}
	}
	if dropped == 0 {
		t.Fatal("bursty plan dropped nothing over 20000 datagrams")
	}
	// Stationary bad-state probability is PGoodBad/(PGoodBad+PBadGood) ≈ 9%;
	// with LossBad = 1 the drop rate tracks it. Accept a wide band.
	rate := float64(dropped) / n
	if rate < 0.02 || rate > 0.25 {
		t.Fatalf("drop rate %.3f outside the plausible band for the plan", rate)
	}
	// Bursts: mean run length is 1/PBadGood = 5, so runs ≈ dropped/5, far
	// fewer than dropped. i.i.d. loss at the same rate would give runs ≈
	// dropped·(1-rate) — nearly every loss isolated.
	if meanRun := float64(dropped) / float64(bursts); meanRun < 2 {
		t.Fatalf("mean loss-burst length %.2f — losses are not bursty", meanRun)
	}
}

// TestPlanValidate: out-of-range knobs fail loudly.
func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{PGoodBad: -0.1},
		{LossBad: 1.5},
		{Corrupt: 2},
		{BlackholeEvery: -1},
		{BlackholeEvery: 10, BlackholeLen: 10}, // swallows the whole period
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v) validated, want error", i, p)
		}
		if _, err := NewInjector(p); err == nil {
			t.Errorf("NewInjector accepted invalid plan %d", i)
		}
	}
	good := Plan{Seed: 1, PGoodBad: 1, PBadGood: 1, LossGood: 1, LossBad: 1,
		Corrupt: 1, Duplicate: 1, Reorder: 1, BlackholeEvery: 10, BlackholeLen: 9}
	if err := good.Validate(); err != nil {
		t.Errorf("boundary plan rejected: %v", err)
	}
}

// TestDeriveSeed: nearby indexes must land far apart (no aliasing between
// per-flow fault patterns).
func TestDeriveSeed(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("DeriveSeed(1, %d) collides", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("different base seeds derive the same flow seed")
	}
}

// TestScheduleDeterministic: same seed ⇒ same kill schedule; offsets are
// strictly increasing and inside [Min·(i+1), Max·(i+1)].
func TestScheduleDeterministic(t *testing.T) {
	s := Schedule{Seed: 17, Min: 100 * time.Millisecond, Max: 300 * time.Millisecond}
	var prev time.Duration
	for i := 0; i < 10; i++ {
		at := s.At(i)
		if again := s.At(i); again != at {
			t.Fatalf("Schedule.At(%d) not deterministic: %v then %v", i, at, again)
		}
		if at <= prev {
			t.Fatalf("Schedule.At(%d) = %v not after At(%d) = %v", i, at, i-1, prev)
		}
		lo := time.Duration(i+1) * s.Min
		hi := time.Duration(i+1) * s.Max
		if at < lo || at > hi {
			t.Fatalf("Schedule.At(%d) = %v outside [%v, %v]", i, at, lo, hi)
		}
		prev = at
	}
	if (Schedule{Seed: 17, Min: time.Second, Max: 0}).At(0) != time.Second {
		t.Fatal("Max < Min should clamp to Min")
	}
}

// TestWireHookMatchesApply: the in-process hook and Apply share the fault
// machine — for a drop/corrupt-only plan they make identical per-datagram
// decisions.
func TestWireHookMatchesApply(t *testing.T) {
	plan := Plan{Seed: 23, PGoodBad: 0.1, PBadGood: 0.3, LossGood: 0.05, LossBad: 0.7, Corrupt: 0.1}
	in := frames(1000)

	applied, _ := replay(t, plan, in)

	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	hook := inj.WireHook()
	var hooked [][]byte
	for i, f := range in {
		// The hook mutates in place; feed it a copy like the broadcaster's
		// pump does.
		b := append([]byte(nil), f...)
		if out := hook(uint64(i), b); out != nil {
			hooked = append(hooked, out)
		}
	}
	if len(applied) != len(hooked) {
		t.Fatalf("Apply delivered %d, WireHook delivered %d", len(applied), len(hooked))
	}
	for i := range applied {
		if !bytes.Equal(applied[i], hooked[i]) {
			t.Fatalf("datagram %d differs between Apply and WireHook", i)
		}
	}
}
