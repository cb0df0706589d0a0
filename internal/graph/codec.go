package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The binary codec is used by cmd/netgen and tests to persist networks.
// Layout (little endian):
//
//	magic   "AIRG" (4 bytes)
//	version u32 (=1)
//	nNodes  u32
//	nArcs   u32
//	nodes   nNodes × (x f64, y f64)
//	arcs    nArcs  × (tail u32, head u32, w f64)
const (
	binaryMagic   = "AIRG"
	binaryVersion = 1
	// decodeSizeHint caps how many records Decode pre-sizes for: the header
	// counts come from the file, so they are a hint, and the slices grow as
	// records actually arrive.
	decodeSizeHint = 256
)

// Encode writes g in the binary network format.
func Encode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var scratch [24]byte
	binary.LittleEndian.PutUint32(scratch[0:], binaryVersion)
	binary.LittleEndian.PutUint32(scratch[4:], uint32(g.NumNodes()))
	binary.LittleEndian.PutUint32(scratch[8:], uint32(g.NumArcs()))
	if _, err := bw.Write(scratch[:12]); err != nil {
		return err
	}
	for _, nd := range g.nodes {
		binary.LittleEndian.PutUint64(scratch[0:], math.Float64bits(nd.X))
		binary.LittleEndian.PutUint64(scratch[8:], math.Float64bits(nd.Y))
		if _, err := bw.Write(scratch[:16]); err != nil {
			return err
		}
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		dst, wgt := g.Out(v)
		for i, d := range dst {
			binary.LittleEndian.PutUint32(scratch[0:], uint32(v))
			binary.LittleEndian.PutUint32(scratch[4:], uint32(d))
			binary.LittleEndian.PutUint64(scratch[8:], math.Float64bits(wgt[i]))
			if _, err := bw.Write(scratch[:16]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decode reads a graph in the binary network format.
func Decode(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var head [16]byte
	if _, err := io.ReadFull(br, head[:16]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if string(head[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", v)
	}
	nNodes := int(binary.LittleEndian.Uint32(head[8:]))
	nArcs := int(binary.LittleEndian.Uint32(head[12:]))
	b := NewBuilder(min(nNodes, decodeSizeHint), min(nArcs, decodeSizeHint))
	var buf [16]byte
	for i := 0; i < nNodes; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("graph: reading node %d: %w", i, promised(err))
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(buf[0:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
		b.AddNode(x, y)
	}
	for i := 0; i < nArcs; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("graph: reading arc %d: %w", i, promised(err))
		}
		u := NodeID(binary.LittleEndian.Uint32(buf[0:]))
		v := NodeID(binary.LittleEndian.Uint32(buf[4:]))
		w := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
		b.AddArc(u, v, w)
	}
	return b.Build()
}

// promised turns the clean io.EOF of a file that ends on a record boundary
// into io.ErrUnexpectedEOF: the header promised a record there.
func promised(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// EncodeText writes g in a line-oriented text format:
//
//	n <nodes> <arcs>
//	v <id> <x> <y>
//	a <tail> <head> <weight>
//
// Lines beginning with '#' are comments.
func EncodeText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d %d\n", g.NumNodes(), g.NumArcs()); err != nil {
		return err
	}
	for _, nd := range g.nodes {
		if _, err := fmt.Fprintf(bw, "v %d %g %g\n", nd.ID, nd.X, nd.Y); err != nil {
			return err
		}
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		dst, wgt := g.Out(v)
		for i, d := range dst {
			if _, err := fmt.Fprintf(bw, "a %d %d %g\n", v, d, wgt[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DecodeText reads the line-oriented text format produced by EncodeText.
// Node lines must appear in dense-ID order.
func DecodeText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	b := NewBuilder(0, 0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "n":
			// Size hint only; nothing to do.
		case "v":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: want 'v id x y', got %q", lineNo, line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node id: %w", lineNo, err)
			}
			if id != b.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: node id %d out of order (want %d)", lineNo, id, b.NumNodes())
			}
			x, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad x: %w", lineNo, err)
			}
			y, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad y: %w", lineNo, err)
			}
			b.AddNode(x, y)
		case "a":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: want 'a tail head w', got %q", lineNo, line)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad tail: %w", lineNo, err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad head: %w", lineNo, err)
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			b.AddArc(NodeID(u), NodeID(v), w)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}
