// Package pq provides an indexed binary min-heap keyed by float64.
//
// Items are small non-negative integers (node IDs); the heap supports
// decrease-key in O(log n), which Dijkstra and A* rely on. A position index
// makes finding a contained item's slot an O(1) lookup.
package pq

// Min is an indexed min-heap. The zero value is not usable; call New.
type Min struct {
	items []int32   // heap order
	keys  []float64 // parallel to items
	pos   []int32   // pos[item] = index in items, or -1
}

// New returns a heap able to hold items in [0, n).
func New(n int) *Min {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &Min{pos: pos}
}

// Len returns the number of items currently in the heap.
func (h *Min) Len() int { return len(h.items) }

// Push inserts item with the given key. It panics if the item is already
// contained (use PushOrDecrease instead).
func (h *Min) Push(item int32, key float64) {
	if h.pos[item] >= 0 {
		panic("pq: Push of item already in heap")
	}
	h.items = append(h.items, item)
	h.keys = append(h.keys, key)
	h.up(len(h.items)-1, item, key)
}

// PushOrDecrease inserts the item or lowers its key, whichever applies.
// It reports whether the heap changed.
func (h *Min) PushOrDecrease(item int32, key float64) bool {
	if i := h.pos[item]; i >= 0 {
		if key >= h.keys[i] {
			return false
		}
		h.up(int(i), item, key)
		return true
	}
	h.Push(item, key)
	return true
}

// Pop removes and returns the minimum item and its key. It panics on an
// empty heap.
func (h *Min) Pop() (int32, float64) {
	if len(h.items) == 0 {
		panic("pq: Pop of empty heap")
	}
	item, key := h.items[0], h.keys[0]
	last := len(h.items) - 1
	moved, movedKey := h.items[last], h.keys[last]
	h.items = h.items[:last]
	h.keys = h.keys[:last]
	h.pos[item] = -1
	if last > 0 {
		h.down(0, moved, movedKey)
	}
	return item, key
}

// Reset empties the heap and grows its ID space to hold items in [0, n) if
// needed, retaining capacity. Cheaper than New when the same heap is reused
// across many searches on the same graph.
func (h *Min) Reset(n int) {
	for _, it := range h.items {
		h.pos[it] = -1
	}
	h.items = h.items[:0]
	h.keys = h.keys[:0]
	if n > len(h.pos) {
		grown := make([]int32, n)
		copy(grown, h.pos)
		for i := len(h.pos); i < n; i++ {
			grown[i] = -1
		}
		h.pos = grown
	}
}

// up sifts (item, key) from the hole at i towards the root. Like down it
// carries the moving element while the entries it passes shift into the
// hole, and stores it once where it comes to rest. Both compare exactly
// what a swap-per-level sift compares, in the same order, so pop order —
// hence every tie-break downstream — is that of the textbook heap
// (TestHoleSiftMatchesSwapSift).
func (h *Min) up(i int, item int32, key float64) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] <= key {
			break
		}
		h.place(i, h.items[parent], h.keys[parent])
		i = parent
	}
	h.place(i, item, key)
}

// down sifts (item, key) from the hole at i towards the leaves.
func (h *Min) down(i int, item int32, key float64) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest, smallestKey := i, key
		if l < n && h.keys[l] < smallestKey {
			smallest, smallestKey = l, h.keys[l]
		}
		if r < n && h.keys[r] < smallestKey {
			smallest, smallestKey = r, h.keys[r]
		}
		if smallest == i {
			break
		}
		h.place(i, h.items[smallest], smallestKey)
		i = smallest
	}
	h.place(i, item, key)
}

func (h *Min) place(i int, item int32, key float64) {
	h.items[i], h.keys[i] = item, key
	h.pos[item] = int32(i)
}
