package packet

import (
	"encoding/binary"
	"math"
)

// Enc is an append-style encoder for record payloads. All integers are
// little endian; coordinates and weights travel as float32, which matches
// the precision budget of a 128-byte-packet broadcast format.
type Enc struct {
	B []byte
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// U16 appends a 16-bit integer.
func (e *Enc) U16(v uint16) { e.B = binary.LittleEndian.AppendUint16(e.B, v) }

// U32 appends a 32-bit integer.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// F32 appends a float64 narrowed to float32.
func (e *Enc) F32(v float64) {
	e.B = binary.LittleEndian.AppendUint32(e.B, math.Float32bits(float32(v)))
}

// Bytes returns the accumulated buffer.
func (e *Enc) Bytes() []byte { return e.B }

// Len returns the number of bytes accumulated.
func (e *Enc) Len() int { return len(e.B) }

// Dec decodes a record payload written by Enc. It is error-sticky: after the
// first short read every getter returns zero and Err reports failure, so
// callers can decode a whole record and check once.
type Dec struct {
	b    []byte
	off  int
	fail bool
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) take(n int) []byte {
	if d.fail || d.off+n > len(d.b) {
		d.fail = true
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U16 reads a 16-bit integer.
func (d *Dec) U16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

// U32 reads a 32-bit integer.
func (d *Dec) U32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// F32 reads a float32 widened to float64.
func (d *Dec) F32() float64 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(s)))
}

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int {
	if d.fail {
		return 0
	}
	return len(d.b) - d.off
}

// Err reports whether any read ran past the end of the payload.
func (d *Dec) Err() bool { return d.fail }
