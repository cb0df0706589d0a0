// Package hilbert implements the Hilbert space-filling curve — the
// locality-preserving order multichannel's Hilbert sharding plan sorts
// region centroids by, and the curve the Euclidean air indexes of the
// paper's Appendix A (HCI [16], DSI [17]) are built on: encoding 2-D grid
// coordinates to curve positions and back, plus the contiguous-interval
// property of quadrants that yields exact curve ranges for query windows.
package hilbert

// Encode maps grid cell (x, y) in a 2^order × 2^order grid to its position
// along the Hilbert curve (the classical d2xy/xy2d construction).
func Encode(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = rot(s, x, y, rx, ry)
	}
	return d
}

// Decode maps a curve position back to grid coordinates.
func Decode(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint32(1); s < 1<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// rot rotates/flips a quadrant appropriately.
func rot(n, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = n - 1 - x
			y = n - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// CellRange returns the contiguous interval [lo, hi] of curve positions
// covered by the level-`level` quadrant containing cell (x, y): the
// Hilbert curve visits every aligned 2^level × 2^level block as one
// contiguous run. Clients use this to compute exact curve ranges for
// query windows by unioning coarse cells.
func CellRange(order, level uint, x, y uint32) (lo, hi uint64) {
	// The curve's recursive construction maps every aligned block to an
	// aligned run of 4^level consecutive positions, so the block interval
	// is the aligned run containing any one of its cells.
	span := uint64(1) << (2 * level)
	d := Encode(order, x, y)
	lo = d &^ (span - 1)
	return lo, lo + span - 1
}
