package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary graph format:
//
//	magic "PGG1" (4 bytes)
//	flags uint32 (bit 0: weighted)
//	n     int64
//	m     int64
//	U     m * int32 (little-endian)
//	V     m * int32
//	W     m * uint32 (only when weighted)
const binaryMagic = "PGG1"

// WriteBinary encodes g in the binary graph format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var flags uint32
	if g.Weighted() {
		flags |= 1
	}
	for _, v := range []any{flags, g.N, g.M()} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.U); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.V); err != nil {
		return err
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a graph in the binary graph format and validates it.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var flags uint32
	var n, m int64
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("graph: reading flags: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: reading n: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("graph: reading m: %w", err)
	}
	if n < 0 || m < 0 || m > (1<<40) {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d", n, m)
	}
	// Read arrays in bounded chunks so a lying header cannot force a
	// giant allocation before the (short) body is noticed.
	g := &Graph{N: n}
	var err2 error
	if g.U, err2 = readInt32s(br, m, "U"); err2 != nil {
		return nil, err2
	}
	if g.V, err2 = readInt32s(br, m, "V"); err2 != nil {
		return nil, err2
	}
	if flags&1 != 0 {
		w, err3 := readInt32s(br, m, "W")
		if err3 != nil {
			return nil, err3
		}
		g.W = make([]uint32, m)
		for i, v := range w {
			g.W[i] = uint32(v)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readInt32s decodes m little-endian int32 values in chunks, so the
// allocation grows only as data actually arrives.
func readInt32s(r io.Reader, m int64, name string) ([]int32, error) {
	const chunk = 1 << 20
	out := make([]int32, 0, min(m, chunk))
	buf := make([]int32, min(m, chunk))
	for int64(len(out)) < m {
		k := min(m-int64(len(out)), chunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:k]); err != nil {
			return nil, fmt.Errorf("graph: reading %s: %w", name, err)
		}
		out = append(out, buf[:k]...)
	}
	return out, nil
}

// WriteEdgeList writes g as a text edge list: a header line "# n <N>"
// followed by one "u v [w]" line per edge.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# n %d\n", g.N); err != nil {
		return err
	}
	for i := range g.U {
		var err error
		if g.Weighted() {
			_, err = fmt.Fprintf(bw, "%d %d %d\n", g.U[i], g.V[i], g.W[i])
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", g.U[i], g.V[i])
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteDOT writes g in Graphviz DOT format (strict graph, weights as edge
// labels) — handy for eyeballing small inputs and results.
func WriteDOT(w io.Writer, g *Graph, name string) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if name == "" {
		name = "g"
	}
	if _, err := fmt.Fprintf(bw, "strict graph %q {\n", name); err != nil {
		return err
	}
	// Isolated vertices still appear.
	deg := g.Degrees()
	for v := int64(0); v < g.N; v++ {
		if deg[v] == 0 {
			if _, err := fmt.Fprintf(bw, "  %d;\n", v); err != nil {
				return err
			}
		}
	}
	for i := range g.U {
		var err error
		if g.Weighted() {
			_, err = fmt.Fprintf(bw, "  %d -- %d [label=%d];\n", g.U[i], g.V[i], g.W[i])
		} else {
			_, err = fmt.Fprintf(bw, "  %d -- %d;\n", g.U[i], g.V[i])
		}
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
