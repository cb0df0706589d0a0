package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/mmap"
)

// The mapped codec serializes a built CSR so it can be served straight out
// of a read-only memory mapping: no Builder, no re-sort, no heap copies of
// the big arrays. Where the "AIRG" codec (codec.go) stores the edge list
// and rebuilds the CSR on load — O(m log m) time and 3x transient memory —
// the mapped form stores the CSR sections themselves, 8-byte aligned, so
// OpenMapped is a validation pass plus slice aliasing. This is what makes
// a continent graph restart-cheap: the file sits in the page cache and the
// Graph costs O(1) heap.
//
// Layout (little endian, every section 8-byte aligned):
//
//	off  0  magic "AIRM" (4 bytes)
//	off  4  u32 format version (=1)
//	off  8  u64 nNodes
//	off 16  u64 nArcs
//	off 24  u64 layout probe (probeWord, written natively by WriteMapped)
//	off 32  f64 minX, minY, maxX, maxY
//	off 64  nodes  nNodes × Node records (id i32, pad u32, x f64, y f64)
//	        off    (nNodes+1) × i32, zero-padded to 8
//	        dst    nArcs × i32, zero-padded to 8
//	        wgt    nArcs × f64
//	        roff   (nNodes+1) × i32, zero-padded to 8
//	        rdst   nArcs × i32, zero-padded to 8
//	        rwgt   nArcs × f64
//
// The node records mirror Go's in-memory Node layout on little-endian
// machines, checked at runtime (canAlias): when the check passes, every
// section aliases the mapping; when it fails (big-endian host, misaligned
// buffer, layout drift), OpenMapped decodes into fresh heap slices instead
// — same Graph, no unsafe aliasing, bit-identical behavior.
const (
	mappedMagic   = "AIRM"
	mappedVersion = 1
	mappedHeader  = 64
	// probeWord round-trips through the file to verify the writer and the
	// reader agree on byte order before any zero-copy aliasing.
	probeWord = 0x0102030405060708
)

// nodeRecBytes is the on-disk (and in-memory) size of one Node record.
const nodeRecBytes = 24

// pad8 rounds n up to a multiple of 8.
func pad8(n int64) int64 { return (n + 7) &^ 7 }

// WriteMapped writes g in the mapped CSR format. The output streams — peak
// extra memory is one bufio buffer regardless of graph size.
func WriteMapped(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [mappedHeader]byte
	copy(hdr[0:4], mappedMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], mappedVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumNodes()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumArcs()))
	binary.LittleEndian.PutUint64(hdr[24:32], probeWord)
	binary.LittleEndian.PutUint64(hdr[32:40], math.Float64bits(g.minX))
	binary.LittleEndian.PutUint64(hdr[40:48], math.Float64bits(g.minY))
	binary.LittleEndian.PutUint64(hdr[48:56], math.Float64bits(g.maxX))
	binary.LittleEndian.PutUint64(hdr[56:64], math.Float64bits(g.maxY))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [nodeRecBytes]byte
	for _, nd := range g.nodes {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(nd.ID))
		binary.LittleEndian.PutUint32(rec[4:8], 0)
		binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(nd.X))
		binary.LittleEndian.PutUint64(rec[16:24], math.Float64bits(nd.Y))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	if err := writeI32s(bw, g.off); err != nil {
		return err
	}
	if err := writeIDs(bw, g.dst); err != nil {
		return err
	}
	if err := writeF64s(bw, g.wgt); err != nil {
		return err
	}
	if err := writeI32s(bw, g.roff); err != nil {
		return err
	}
	if err := writeIDs(bw, g.rdst); err != nil {
		return err
	}
	if err := writeF64s(bw, g.rwgt); err != nil {
		return err
	}
	return bw.Flush()
}

func writeI32s(bw *bufio.Writer, vs []int32) error {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return writePad(bw, int64(len(vs))*4)
}

func writeIDs(bw *bufio.Writer, vs []NodeID) error {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return writePad(bw, int64(len(vs))*4)
}

func writeF64s(bw *bufio.Writer, vs []float64) error {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func writePad(bw *bufio.Writer, written int64) error {
	for pad := pad8(written) - written; pad > 0; pad-- {
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	}
	return nil
}

// canAlias reports whether data's numeric sections can be viewed in place:
// little-endian host, 8-aligned base address, and a Node memory layout
// matching the record format. Compile-time constants on any given build,
// except the buffer alignment.
func canAlias(data []byte) bool {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		return false
	}
	if unsafe.Sizeof(Node{}) != nodeRecBytes ||
		unsafe.Offsetof(Node{}.ID) != 0 ||
		unsafe.Offsetof(Node{}.X) != 8 ||
		unsafe.Offsetof(Node{}.Y) != 16 {
		return false
	}
	probe := uint64(probeWord)
	first := *(*byte)(unsafe.Pointer(&probe))
	return first == 0x08 // little endian
}

// aliasSlice views n elements of T at data[off:]. The caller has verified
// alignment and bounds.
func aliasSlice[T any](data []byte, off int64, n int64) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[off])), n)
}

// OpenMapped builds a Graph from a buffer in the mapped CSR format —
// typically an mmap'd file (MapFile) or a diskcache payload. When the host
// allows (see canAlias) the Graph's arrays alias data: the caller must keep
// data valid and unmodified for the Graph's lifetime (a page-cache mapping
// does this for free). Otherwise the sections are decoded into heap slices
// and data may be discarded. Either way the resulting Graph is
// bit-identical to the one WriteMapped serialized.
func OpenMapped(data []byte) (*Graph, error) {
	if int64(len(data)) < mappedHeader {
		return nil, fmt.Errorf("graph: mapped buffer shorter than header")
	}
	if string(data[0:4]) != mappedMagic {
		return nil, fmt.Errorf("graph: bad mapped magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != mappedVersion {
		return nil, fmt.Errorf("graph: unsupported mapped version %d", v)
	}
	if p := binary.LittleEndian.Uint64(data[24:32]); p != probeWord {
		return nil, fmt.Errorf("graph: mapped layout probe %#x, want %#x", p, uint64(probeWord))
	}
	n := int64(binary.LittleEndian.Uint64(data[8:16]))
	m := int64(binary.LittleEndian.Uint64(data[16:24]))
	if n < 0 || m < 0 || n > math.MaxInt32 || m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: mapped sizes out of range: %d nodes, %d arcs", n, m)
	}
	g := &Graph{
		minX: math.Float64frombits(binary.LittleEndian.Uint64(data[32:40])),
		minY: math.Float64frombits(binary.LittleEndian.Uint64(data[40:48])),
		maxX: math.Float64frombits(binary.LittleEndian.Uint64(data[48:56])),
		maxY: math.Float64frombits(binary.LittleEndian.Uint64(data[56:64])),
	}
	// Walk the section table once, checking bounds as we go.
	off := int64(mappedHeader)
	section := func(size int64) (int64, error) {
		at := off
		off += size
		if off > int64(len(data)) {
			return 0, fmt.Errorf("graph: mapped buffer truncated (need %d bytes, have %d)", off, len(data))
		}
		return at, nil
	}
	nodesAt, err := section(n * nodeRecBytes)
	if err != nil {
		return nil, err
	}
	offAt, err := section(pad8((n + 1) * 4))
	if err != nil {
		return nil, err
	}
	dstAt, err := section(pad8(m * 4))
	if err != nil {
		return nil, err
	}
	wgtAt, err := section(m * 8)
	if err != nil {
		return nil, err
	}
	roffAt, err := section(pad8((n + 1) * 4))
	if err != nil {
		return nil, err
	}
	rdstAt, err := section(pad8(m * 4))
	if err != nil {
		return nil, err
	}
	rwgtAt, err := section(m * 8)
	if err != nil {
		return nil, err
	}

	if canAlias(data) {
		g.nodes = aliasSlice[Node](data, nodesAt, n)
		g.off = aliasSlice[int32](data, offAt, n+1)
		g.dst = aliasSlice[NodeID](data, dstAt, m)
		g.wgt = aliasSlice[float64](data, wgtAt, m)
		g.roff = aliasSlice[int32](data, roffAt, n+1)
		g.rdst = aliasSlice[NodeID](data, rdstAt, m)
		g.rwgt = aliasSlice[float64](data, rwgtAt, m)
	} else {
		g.nodes = make([]Node, n)
		for i := int64(0); i < n; i++ {
			rec := data[nodesAt+i*nodeRecBytes:]
			g.nodes[i] = Node{
				ID: NodeID(binary.LittleEndian.Uint32(rec[0:4])),
				X:  math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
				Y:  math.Float64frombits(binary.LittleEndian.Uint64(rec[16:24])),
			}
		}
		g.off = decodeI32s(data[offAt:], n+1)
		g.dst = decodeIDs(data[dstAt:], m)
		g.wgt = decodeF64s(data[wgtAt:], m)
		g.roff = decodeI32s(data[roffAt:], n+1)
		g.rdst = decodeIDs(data[rdstAt:], m)
		g.rwgt = decodeF64s(data[rwgtAt:], m)
	}

	// Structural validation: monotone offsets ending at m, targets in
	// range. O(n+m) sequential reads — the price of trusting the arrays
	// for every later unchecked index.
	if err := checkCSR(g.off, g.dst, n, m); err != nil {
		return nil, fmt.Errorf("graph: mapped forward CSR: %w", err)
	}
	if err := checkCSR(g.roff, g.rdst, n, m); err != nil {
		return nil, fmt.Errorf("graph: mapped reverse CSR: %w", err)
	}
	for i := range g.nodes {
		if g.nodes[i].ID != NodeID(i) {
			return nil, fmt.Errorf("graph: mapped node %d has ID %d", i, g.nodes[i].ID)
		}
	}
	return g, nil
}

func decodeI32s(data []byte, n int64) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return vs
}

func decodeIDs(data []byte, n int64) []NodeID {
	vs := make([]NodeID, n)
	for i := range vs {
		vs[i] = NodeID(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return vs
}

func decodeF64s(data []byte, n int64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return vs
}

func checkCSR(off []int32, dst []NodeID, n, m int64) error {
	if int64(len(off)) != n+1 || int64(len(dst)) != m {
		return fmt.Errorf("section sizes %d/%d, want %d/%d", len(off), len(dst), n+1, m)
	}
	if n >= 0 && len(off) > 0 {
		if off[0] != 0 || int64(off[n]) != m {
			return fmt.Errorf("offsets span [%d,%d], want [0,%d]", off[0], off[n], m)
		}
	}
	for i := int64(0); i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("offsets not monotone at node %d", i)
		}
	}
	for i, d := range dst {
		if d < 0 || int64(d) >= n {
			return fmt.Errorf("arc %d targets node %d of %d", i, d, n)
		}
	}
	return nil
}

// MappedGraph is a Graph backed by a file mapping; Close releases the
// mapping (after which the Graph must not be used).
type MappedGraph struct {
	*Graph
	data *mmap.Data
}

// Close unmaps the backing file.
func (mg *MappedGraph) Close() error {
	if mg.data == nil {
		return nil
	}
	d := mg.data
	mg.data = nil
	return d.Close()
}

// MapFile memory-maps the named mapped-CSR file (WriteMapped's output) and
// opens it in place: the graph's arrays live in the page cache, not the
// heap. The caller must Close the result when done with the graph.
func MapFile(path string) (*MappedGraph, error) {
	d, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	g, err := OpenMapped(d.Bytes())
	if err != nil {
		d.Close()
		return nil, err
	}
	return &MappedGraph{Graph: g, data: d}, nil
}
