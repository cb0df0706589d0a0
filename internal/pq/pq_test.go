package pq

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrdering(t *testing.T) {
	h := New(10)
	keys := []float64{5, 1, 4, 2, 3}
	for i, k := range keys {
		h.Push(int32(i), k)
	}
	var got []float64
	for h.Len() > 0 {
		_, k := h.Pop()
		got = append(got, k)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("pop order not sorted: %v", got)
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.PushOrDecrease(2, 5)
	if item, k := h.Pop(); item != 2 || k != 5 {
		t.Errorf("got (%d, %v), want (2, 5)", item, k)
	}
	// Increasing a contained item's key is a no-op.
	h.PushOrDecrease(1, 100)
	if k := h.keys[h.pos[1]]; k != 20 {
		t.Errorf("key rose to %v", k)
	}
}

func TestPushOrDecrease(t *testing.T) {
	h := New(2)
	if !h.PushOrDecrease(0, 7) {
		t.Error("first push should change the heap")
	}
	if h.PushOrDecrease(0, 9) {
		t.Error("raising a key should not change the heap")
	}
	if !h.PushOrDecrease(0, 3) {
		t.Error("lowering a key should change the heap")
	}
	if _, k := h.Pop(); k != 3 {
		t.Errorf("key %v, want 3", k)
	}
}

func TestContains(t *testing.T) {
	h := New(3)
	h.Push(1, 1)
	if h.pos[1] < 0 || h.pos[0] >= 0 {
		t.Error("containment wrong after push")
	}
	h.Pop()
	if h.pos[1] >= 0 {
		t.Error("containment wrong after pop")
	}
}

func TestReset(t *testing.T) {
	h := New(5)
	for i := int32(0); i < 5; i++ {
		h.Push(i, float64(i))
	}
	h.Reset(0)
	if h.Len() != 0 {
		t.Fatalf("len %d after reset", h.Len())
	}
	for i := int32(0); i < 5; i++ {
		if h.pos[i] >= 0 {
			t.Fatalf("item %d still contained after reset", i)
		}
	}
	h.Push(3, 1) // must not panic
}

func TestPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("pop empty", func() { New(1).Pop() })
	expectPanic("double push", func() {
		h := New(1)
		h.Push(0, 1)
		h.Push(0, 2)
	})
}

// TestHeapSortProperty: popping all items yields the keys in sorted order,
// for arbitrary inputs (heap sort equivalence).
func TestHeapSortProperty(t *testing.T) {
	f := func(keys []float64) bool {
		if len(keys) > 512 {
			keys = keys[:512]
		}
		for i, k := range keys {
			if k != k { // NaN keys are not meaningful priorities
				keys[i] = 0
			}
		}
		h := New(len(keys))
		for i, k := range keys {
			h.Push(int32(i), k)
		}
		prev := math.Inf(-1)
		for h.Len() > 0 {
			_, k := h.Pop()
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecreaseKeyProperty: with random interleaved decrease-key operations,
// the final pop sequence equals the sorted final keys.
func TestDecreaseKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(64)
		h := New(n)
		final := make([]float64, n)
		for i := 0; i < n; i++ {
			final[i] = rng.Float64() * 100
			h.Push(int32(i), final[i])
		}
		for ops := 0; ops < n; ops++ {
			it := int32(rng.Intn(n))
			if i := h.pos[it]; i >= 0 {
				nk := h.keys[i] * rng.Float64()
				h.PushOrDecrease(it, nk)
				final[it] = nk
			}
		}
		var popped []float64
		for h.Len() > 0 {
			_, k := h.Pop()
			popped = append(popped, k)
		}
		sort.Float64s(final)
		for i := range final {
			if popped[i] != final[i] {
				t.Fatalf("trial %d: pop %d = %v, want %v", trial, i, popped[i], final[i])
			}
		}
	}
}

// swapMin is the textbook swap-per-level sift Min used before the hole-based
// one, kept as the oracle for TestHoleSiftMatchesSwapSift: the heap's pop
// order among equal keys decides Dijkstra's tie-breaks and so every byte of
// a broadcast cycle.
type swapMin struct{ Min }

func (h *swapMin) push(item int32, key float64) {
	h.items = append(h.items, item)
	h.keys = append(h.keys, key)
	h.pos[item] = int32(len(h.items) - 1)
	h.swapUp(len(h.items) - 1)
}

func (h *swapMin) pushOrDecrease(item int32, key float64) bool {
	if i := h.pos[item]; i >= 0 {
		if key >= h.keys[i] {
			return false
		}
		h.keys[i] = key
		h.swapUp(int(i))
		return true
	}
	h.push(item, key)
	return true
}

func (h *swapMin) pop() (int32, float64) {
	item, key := h.items[0], h.keys[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.keys = h.keys[:last]
	h.pos[item] = -1
	if last > 0 {
		h.swapDown(0)
	}
	return item, key
}

func (h *swapMin) swapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] <= h.keys[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *swapMin) swapDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.keys[l] < h.keys[smallest] {
			smallest = l
		}
		if r < n && h.keys[r] < h.keys[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *swapMin) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

// TestHoleSiftMatchesSwapSift drives the hole-based heap and the swap-based
// oracle through the same random push / decrease / pop sequences, keys drawn
// from a handful of values so ties are the common case, and requires the
// same array layout after every operation — which implies the same pop
// order, ties included.
func TestHoleSiftMatchesSwapSift(t *testing.T) {
	const n = 64
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, ref := New(n), &swapMin{*New(n)}
		for op := 0; op < 400; op++ {
			item, key := int32(rng.Intn(n)), float64(rng.Intn(8))
			switch {
			case rng.Intn(3) == 0 && h.Len() > 0:
				gi, gk := h.Pop()
				wi, wk := ref.pop()
				if gi != wi || gk != wk {
					t.Fatalf("seed %d op %d: Pop = (%d, %v), swap-based heap pops (%d, %v)", seed, op, gi, gk, wi, wk)
				}
			default:
				if got, want := h.PushOrDecrease(item, key), ref.pushOrDecrease(item, key); got != want {
					t.Fatalf("seed %d op %d: PushOrDecrease(%d, %v) = %v, swap-based heap says %v", seed, op, item, key, got, want)
				}
			}
			if !reflect.DeepEqual(h.items, ref.items) || !reflect.DeepEqual(h.keys, ref.keys) || !reflect.DeepEqual(h.pos, ref.pos) {
				t.Fatalf("seed %d op %d: layouts diverge\nhole: %v %v\nswap: %v %v", seed, op, h.items, h.keys, ref.items, ref.keys)
			}
		}
	}
}
