package precompute

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// The BorderData codec persists the border-pair pre-computation — the
// Dijkstra storm that dominates a cold start (the paper's Table 3 cost) —
// so a restarted server with an unchanged graph and partitioning can load
// yesterday's matrices instead of recomputing them.
//
// Layout (little endian):
//
//	header 32 bytes: magic "AIRB", u32 format version (=1), u32 regions,
//	       u32 words per region set, u64 nodes, i64 elapsed ns
//	min    n×n f64, row-major
//	max    n×n f64, row-major
//	trav   n×n region sets, words u64 each
//	cross  nodes bytes (0 or 1), zero-padded to 8
//	footer 8 bytes: "BENDBEND"
const (
	borderMagic     = "AIRB"
	borderEndMagic  = "BENDBEND"
	borderVersion1  = 1
	borderHeaderLen = 32
)

func regionWords(b *BorderData, n int) int {
	if len(b.Traverse) > 0 {
		return len(b.Traverse[0])
	}
	return (n + 63) / 64
}

func pad8b(n int64) int64 { return (n + 7) &^ 7 }

// EncodeBorder writes b (computed for n regions) to w.
func EncodeBorder(w io.Writer, b *BorderData, n int) error {
	words := regionWords(b, n)
	if len(b.MinDist) != n || len(b.MaxDist) != n || len(b.Traverse) != n*n {
		return fmt.Errorf("precompute: border data shaped for %d×%d/%d, want %d regions",
			len(b.MinDist), len(b.MaxDist), len(b.Traverse), n)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [borderHeaderLen]byte
	copy(hdr[0:4], borderMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], borderVersion1)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(n))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(words))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(b.CrossBorder)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(b.Elapsed.Nanoseconds()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var scratch [8]byte
	writeRow := func(row []float64) error {
		if len(row) != n {
			return fmt.Errorf("precompute: ragged distance row of %d, want %d", len(row), n)
		}
		for _, v := range row {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			if _, err := bw.Write(scratch[:]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range b.MinDist {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, row := range b.MaxDist {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for i, set := range b.Traverse {
		if len(set) != words {
			return fmt.Errorf("precompute: traversal set %d has %d words, want %d", i, len(set), words)
		}
		for _, w64 := range set {
			binary.LittleEndian.PutUint64(scratch[:], w64)
			if _, err := bw.Write(scratch[:]); err != nil {
				return err
			}
		}
	}
	for _, c := range b.CrossBorder {
		v := byte(0)
		if c {
			v = 1
		}
		if err := bw.WriteByte(v); err != nil {
			return err
		}
	}
	for p := int64(len(b.CrossBorder)); p%8 != 0; p++ {
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(borderEndMagic); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeBorder reads border data previously written by EncodeBorder and
// returns it with the region count it was computed for. The returned
// structure owns its memory (nothing aliases data).
func DecodeBorder(data []byte) (*BorderData, int, error) {
	if len(data) < borderHeaderLen+8 {
		return nil, 0, fmt.Errorf("precompute: border buffer shorter than header")
	}
	if string(data[0:4]) != borderMagic {
		return nil, 0, fmt.Errorf("precompute: bad border magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != borderVersion1 {
		return nil, 0, fmt.Errorf("precompute: unsupported border format %d", v)
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	words := int(binary.LittleEndian.Uint32(data[12:16]))
	nodes := int64(binary.LittleEndian.Uint64(data[16:24]))
	elapsed := time.Duration(binary.LittleEndian.Uint64(data[24:32]))
	if n < 0 || words < 0 || nodes < 0 {
		return nil, 0, fmt.Errorf("precompute: border header out of range (n=%d words=%d nodes=%d)", n, words, nodes)
	}
	want := int64(borderHeaderLen) + 2*int64(n)*int64(n)*8 + int64(n)*int64(n)*int64(words)*8 + pad8b(nodes) + 8
	if int64(len(data)) != want {
		return nil, 0, fmt.Errorf("precompute: border buffer is %d bytes, header implies %d", len(data), want)
	}
	if string(data[len(data)-8:]) != borderEndMagic {
		return nil, 0, fmt.Errorf("precompute: bad border footer %q", data[len(data)-8:])
	}

	b := &BorderData{Elapsed: elapsed}
	at := int64(borderHeaderLen)
	readMatrix := func() [][]float64 {
		m := make([][]float64, n)
		flat := make([]float64, n*n)
		for i := range flat {
			flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[at : at+8]))
			at += 8
		}
		for i := range m {
			m[i] = flat[i*n : (i+1)*n : (i+1)*n]
		}
		return m
	}
	b.MinDist = readMatrix()
	b.MaxDist = readMatrix()
	b.Traverse = make([]RegionSet, n*n)
	flatWords := make([]uint64, n*n*words)
	for i := range flatWords {
		flatWords[i] = binary.LittleEndian.Uint64(data[at : at+8])
		at += 8
	}
	for i := range b.Traverse {
		b.Traverse[i] = RegionSet(flatWords[i*words : (i+1)*words : (i+1)*words])
	}
	b.CrossBorder = make([]bool, nodes)
	for i := int64(0); i < nodes; i++ {
		switch data[at] {
		case 0:
		case 1:
			b.CrossBorder[i] = true
		default:
			return nil, 0, fmt.Errorf("precompute: cross-border byte %d at node %d", data[at], i)
		}
		at++
	}
	return b, n, nil
}
