//go:build linux

package wire

import "testing"

// TestGROSegmentParse walks control-message buffers the kernel could hand a
// read: the UDP_GRO message alone or behind another, none, and damaged
// headers, which must yield "one datagram" rather than a bad size or a
// stuck walk.
func TestGROSegmentParse(t *testing.T) {
	gro := cmsg(udpGRO, 4, segSize)
	other := cmsg(udpSegment, 2, 7)
	for _, c := range []struct {
		name string
		oob  []byte
		want int
	}{
		{"gro", gro, segSize},
		{"behind another", append(append([]byte{}, other...), gro...), segSize},
		{"none", nil, 0},
		{"other only", other, 0},
		{"truncated", gro[:len(gro)-5], 0},
		{"zero length", make([]byte, len(gro)), 0},
	} {
		if got := groSegment(c.oob); got != c.want {
			t.Errorf("%s: groSegment = %d, want %d", c.name, got, c.want)
		}
	}
}
