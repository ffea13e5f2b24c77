// Package csr implements the compressed graph substrate: a
// source-relative, nibble-varint-encoded compressed-sparse-row
// representation of the document-link graph, small enough that
// paper-scale and beyond (10M-100M documents) fits comfortably in —
// or, file-backed, mostly out of — RAM.
//
// Layout. Nodes are grouped into fixed blocks of 64. Per node the
// payload holds its sorted target list split around the node's own id:
// first a count k of targets below the source, then the k distances
// walking down from the source (closest first), then the remaining
// distances walking up. Distances are encoded minus one (consecutive
// targets are distinct) as nibble varints — 3 data bits plus a
// continuation bit per half-byte — so the neighborhood links that
// dominate generated graphs cost one or two nibbles each, while rare
// long-range links spend five or six. Degrees live outside the payload
// in a uint16-per-node array (an escape value spills the rare >= 65535
// degrees to a sorted side table), and a block-skip index stores the
// payload nibble offset of every block's first node. A read of node v
// starts from that offset — or, through a Cursor, from wherever the
// cursor's last read in the block stopped — passes the varints of the
// nodes in between a 16-nibble word at a time (their number is a sum
// over the degree array, their ends a popcount), and decodes v alone:
// the cost follows the rows a pass pushes from, not the blocks they sit
// in. Ascending sweeps — the pass pipeline's shard-major work lists —
// never pass a varint twice.
//
// The representation implements graph.Linker and graph.CursorLinker,
// so every engine runs on it unchanged, and decode emits each target
// list in ascending id order — the package-wide adjacency invariant —
// which keeps ranks bit-identical with the uncompressed
// representation. Hot loops obtain per-worker Cursors that decode into
// a reused buffer with zero steady-state allocations.
//
// The same sections serialize to a file (magic "DPRZ") whose payload
// is memory-mapped on Linux, so a graph bigger than RAM pages in on
// demand instead of residing on the heap.
package csr

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"dpr/internal/graph"
)

const (
	// blockShift sets the skip-index granularity: 64 nodes per block
	// balances index overhead (one offset per block, ~0.13 bytes/node)
	// against worst-case random-seek skip work.
	blockShift = 6
	blockNodes = 1 << blockShift
	blockMask  = blockNodes - 1

	// degEscape in the uint16 degree array redirects to the bigDeg
	// side table.
	degEscape = 0xFFFF
)

func numBlocks(n int) int { return (n + blockNodes - 1) >> blockShift }

// bigDegEntry records one node whose out-degree overflows uint16.
type bigDegEntry struct {
	node int32
	deg  int32
}

// Graph is an immutable compressed document graph. It satisfies
// graph.Linker (and graph.CursorLinker), so engines accept it wherever
// they accept the uncompressed representation.
type Graph struct {
	n        int
	m        int64
	deg      []uint16      // per-node out-degree, degEscape spills to bigDeg
	bigDeg   []bigDegEntry // sorted by node id
	blockOff []int64       // numBlocks+1 payload nibble offsets
	payload  []byte        // nibble stream, low nibble of each byte first
	closer   func() error  // unmaps a file-backed payload; nil in-memory
}

// NumNodes returns the number of documents.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of links.
func (g *Graph) NumEdges() int64 { return g.m }

// OutDegree returns the number of out-links of v in O(1).
func (g *Graph) OutDegree(v graph.NodeID) int {
	if d := g.deg[v]; d != degEscape {
		return int(d)
	}
	i, ok := slices.BinarySearchFunc(g.bigDeg, int32(v), cmpBigDeg)
	if !ok {
		panic(fmt.Sprintf("csr: degree escape for node %d without side-table entry", v))
	}
	return int(g.bigDeg[i].deg)
}

// cmpBigDeg orders the big-degree side table by node id. Kept a named
// function (not a literal in OutDegree) so the hot decode path stays
// closure-free.
func cmpBigDeg(e bigDegEntry, node int32) int { return int(e.node - node) }

// readNibVar decodes one nibble varint at nibble index p of data,
// returning the value and the advanced index.
func readNibVar(data []byte, p int64) (uint64, int64) {
	var x uint64
	var shift uint
	for {
		nb := data[p>>1] >> (uint(p&1) << 2) & 0xF
		p++
		x |= uint64(nb&7) << shift
		if nb < 8 {
			return x, p
		}
		shift += 3
	}
}

// skipNibVars advances past count varints starting at nibble index p,
// a nibble at a time: skipVars' fallback for the payload's last bytes.
func skipNibVars(data []byte, p int64, count int) int64 {
	for ; count > 0; count-- {
		for data[p>>1]>>(uint(p&1)<<2)&0x8 != 0 {
			p++
		}
		p++
	}
	return p
}

// skipVars advances past count varints starting at nibble index p, 16
// nibbles per step: a varint ends at the one nibble with a clear top
// bit, so the terminators in an 8-byte load are a popcount. The payload
// may be a read-only mapping that ends on the file's last byte, so a
// word is only loaded where all 8 bytes lie inside data.
//
//dpr:hotpath
func skipVars(data []byte, p int64, count int) int64 {
	for count > 0 {
		i := int(p >> 1)
		if i+8 > len(data) {
			return skipNibVars(data, p, count)
		}
		// An odd p starts mid-byte: the low nibble is already behind it.
		m := ^binary.LittleEndian.Uint64(data[i:]) & 0x8888888888888888 &^ (uint64(p&1) << 3)
		if n := bits.OnesCount64(m); n < count {
			count -= n
			p = int64(i+8) << 1
			continue
		}
		for ; count > 1; count-- {
			m &= m - 1
		}
		return int64(i)<<1 + int64(bits.TrailingZeros64(m)>>2) + 1
	}
	return p
}

// skipNodes advances p from the first varint of node from to the first
// varint of node to (from <= to, same block): each node in between
// holds its below-source count plus one gap per target, or nothing at
// degree 0.
//
//dpr:hotpath
func (g *Graph) skipNodes(from, to int, p int64) int64 {
	count := 0
	for i, d := range g.deg[from:to] {
		switch d {
		case 0:
		case degEscape:
			count += g.OutDegree(graph.NodeID(from+i)) + 1
		default:
			count += int(d) + 1
		}
	}
	return skipVars(g.payload, p, count)
}

// decodeInto decodes node v's target list starting at nibble index p
// into dst (len = OutDegree(v), not 0: a node without targets holds no
// varints), returning the advanced index. Output is ascending: the
// below-source distances fill dst backwards from the split point, the
// above-source distances forwards.
func (g *Graph) decodeInto(v graph.NodeID, p int64, dst []graph.NodeID) int64 {
	data := g.payload
	k, p := readNibVar(data, p)
	t := v
	for j := k; j > 0; j-- {
		var x uint64
		x, p = readNibVar(data, p)
		t -= graph.NodeID(x) + 1
		dst[j-1] = t
	}
	t = v
	for j := int(k); j < len(dst); j++ {
		var x uint64
		x, p = readNibVar(data, p)
		t += graph.NodeID(x) + 1
		dst[j] = t
	}
	return p
}

// OutLinks returns the out-links of v in ascending id order. This is
// the generic (allocating) Linker path: it decodes node v into a fresh
// slice on every call so it stays safe for concurrent readers. Hot
// loops should use a per-worker Cursor instead.
func (g *Graph) OutLinks(v graph.NodeID) []graph.NodeID {
	d := g.OutDegree(v)
	if d == 0 {
		return nil
	}
	out := make([]graph.NodeID, d)
	first := int(v) &^ blockMask
	p := g.skipNodes(first, int(v), g.blockOff[first>>blockShift])
	g.decodeInto(v, p, out)
	return out
}

// Close releases a file-backed graph's mapping. It is a no-op for
// in-memory graphs and safe to call more than once.
func (g *Graph) Close() error {
	if g.closer == nil {
		return nil
	}
	c := g.closer
	g.closer = nil
	// Drop the mapped section so a use-after-close faults loudly via a
	// nil slice instead of touching unmapped pages.
	g.payload = nil
	return c()
}

// PayloadBytes returns the size of the nibble-varint adjacency stream
// — the compressed counterpart of the uncompressed representation's
// 4-byte-per-edge outAdj array.
func (g *Graph) PayloadBytes() int64 { return int64(len(g.payload)) }

// IndexBytes returns the size of the per-node metadata: the degree
// array, the big-degree side table and the block-skip index (the
// counterpart of the uncompressed outStart array, which is likewise
// excluded from the classic bytes-per-edge accounting).
func (g *Graph) IndexBytes() int64 {
	return int64(2*len(g.deg) + 8*len(g.bigDeg) + 8*len(g.blockOff))
}

// BytesPerEdge returns adjacency payload bytes per edge.
func (g *Graph) BytesPerEdge() float64 {
	if g.m == 0 {
		return 0
	}
	return float64(g.PayloadBytes()) / float64(g.m)
}

// TotalBytesPerEdge returns (payload + metadata) bytes per edge.
func (g *Graph) TotalBytesPerEdge() float64 {
	if g.m == 0 {
		return 0
	}
	return float64(g.PayloadBytes()+g.IndexBytes()) / float64(g.m)
}

// NewCursor returns a fresh decode cursor. Each concurrent reader
// needs its own.
func (g *Graph) NewCursor() graph.LinkCursor { return &Cursor{g: g, at: -1} }

var (
	_ graph.Linker       = (*Graph)(nil)
	_ graph.CursorLinker = (*Graph)(nil)
)

// Cursor is a positional decode handle: it remembers the node its last
// decode stopped in front of and that node's payload offset. OutLinks(v)
// skips from there to v when v lies at or ahead of it in the same block
// — from the block's skip-index entry otherwise — and decodes v alone,
// so a read costs the varints skipped (a word at a time) plus v's own
// degree, never the block around it. Not safe for concurrent use; the
// slice returned by OutLinks is valid until the next OutLinks call.
type Cursor struct {
	g   *Graph
	at  int            // node whose varints begin at p, -1 before the first decode
	p   int64          // payload nibble offset of node at
	buf []graph.NodeID // decoded targets of the last node read
}

// OutLinks returns the out-links of v in ascending id order, decoded
// into the cursor's reused buffer.
//
//dpr:hotpath
func (c *Cursor) OutLinks(v graph.NodeID) []graph.NodeID {
	g := c.g
	d := int(g.deg[v])
	if d == 0 {
		return nil // no varints to pass: the position stays good
	}
	if d == degEscape {
		d = g.OutDegree(v)
	}
	at, p := c.at, c.p
	if first := int(v) &^ blockMask; at < first || at > int(v) {
		at, p = first, g.blockOff[first>>blockShift]
	}
	if at < int(v) {
		p = g.skipNodes(at, int(v), p)
	}
	if cap(c.buf) < d {
		//dpr:ignore hotpath-transitive: grow is the explicit cold path — it runs until the buffer fits the heaviest node read, then never again
		c.grow(d)
	}
	dst := c.buf[:d]
	c.at, c.p = int(v)+1, g.decodeInto(v, p, dst)
	return dst
}

// grow is OutLinks' cold path: replace the decode buffer with one that
// fits d targets.
func (c *Cursor) grow(d int) {
	c.buf = make([]graph.NodeID, d)
}
