package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
)

// Binary format: magic "DPRG", version u32, nodes u64, edges u64,
// then outStart (n+1 x u64) and outAdj (m x u32), little endian.
const (
	binaryMagic   = "DPRG"
	binaryVersion = 1
)

// WriteBinary serializes the graph's forward adjacency to w.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := []uint64{binaryVersion, uint64(g.n), uint64(len(g.outAdj))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, v := range g.outStart {
		if err := binary.Write(bw, binary.LittleEndian, uint64(v)); err != nil {
			return err
		}
	}
	for _, v := range g.outAdj {
		if err := binary.Write(bw, binary.LittleEndian, uint32(v)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var version, n, m uint64
	for _, p := range []*uint64{&version, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	const maxNodes = 1 << 31
	if n > maxNodes || m > 64*maxNodes {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n, m)
	}
	g := &Graph{n: int(n)}
	g.outStart = make([]int64, n+1)
	for i := range g.outStart {
		var v uint64
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("graph: reading offsets: %w", err)
		}
		g.outStart[i] = int64(v)
	}
	g.outAdj = make([]NodeID, m)
	buf := make([]byte, 4)
	for i := range g.outAdj {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("graph: reading adjacency: %w", err)
		}
		g.outAdj[i] = NodeID(binary.LittleEndian.Uint32(buf))
	}
	// Files written before the sorted-adjacency invariant may carry
	// draw-order lists; normalize so every loaded graph upholds it.
	for v := 0; v < g.n; v++ {
		slices.Sort(g.outAdj[g.outStart[v]:g.outStart[v+1]])
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteEdgeList writes the graph as "src dst" text lines preceded by a
// "# nodes N" header, the interchange format of cmd/dprgen.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# nodes %d\n", g.n); err != nil {
		return err
	}
	for v := 0; v < g.n; v++ {
		for _, t := range g.OutLinks(NodeID(v)) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveBinary writes the graph to path.
func (g *Graph) SaveBinary(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinary reads a graph from path.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
