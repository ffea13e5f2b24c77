// Package graph provides the directed document-link graphs underlying
// the distributed pagerank computation: a compact CSR representation, a
// mutable builder, the power-law generator matching the paper's section
// 4.1 methodology (Broder et al. web-graph model), degree statistics
// and (de)serialization.
//
// Nodes are dense int32 identifiers 0..N-1; each node represents one
// document in the P2P system. Edges are document links (out-links).
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// NodeID identifies a document in a Graph.
type NodeID = int32

// Graph is an immutable directed graph in compressed sparse row form.
// The forward (out-link) adjacency is always present; the transposed
// (in-link) adjacency is built on demand by Transpose and cached.
//
// Every constructor in this package produces per-node target lists in
// ascending id order. The sorted-adjacency invariant is what lets the
// compressed representation (internal/csr) delta-gap encode the same
// lists and still replay them in the identical order, keeping ranks
// bit-identical across representations.
type Graph struct {
	n        int
	outStart []int64 // length n+1; outAdj[outStart[v]:outStart[v+1]] are v's out-links
	outAdj   []NodeID
	inStart  []int64 // nil until Transpose is called
	inAdj    []NodeID

	transposeOnce sync.Once
}

// NumNodes returns the number of documents.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of links.
func (g *Graph) NumEdges() int64 { return int64(len(g.outAdj)) }

// OutDegree returns the number of out-links of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.outStart[v+1] - g.outStart[v])
}

// OutLinks returns the out-links of v in ascending id order. The
// returned slice aliases the graph's internal storage and must not be
// modified.
func (g *Graph) OutLinks(v NodeID) []NodeID {
	return g.outAdj[g.outStart[v]:g.outStart[v+1]]
}

// InDegree returns the number of in-links of v. It builds the transpose
// on first use.
func (g *Graph) InDegree(v NodeID) int {
	g.Transpose()
	return int(g.inStart[v+1] - g.inStart[v])
}

// InLinks returns the in-links of v (the documents linking to v),
// building the transpose on first use. The returned slice aliases
// internal storage.
func (g *Graph) InLinks(v NodeID) []NodeID {
	g.Transpose()
	return g.inAdj[g.inStart[v]:g.inStart[v+1]]
}

// Transpose materializes the in-link adjacency. It is idempotent,
// costs O(N+E) the first time, and is safe for concurrent first use:
// racing callers all block until one of them has built the adjacency.
func (g *Graph) Transpose() {
	g.transposeOnce.Do(g.buildTranspose)
}

func (g *Graph) buildTranspose() {
	inStart := make([]int64, g.n+1)
	for _, t := range g.outAdj {
		inStart[t+1]++
	}
	for i := 0; i < g.n; i++ {
		inStart[i+1] += inStart[i]
	}
	inAdj := make([]NodeID, len(g.outAdj))
	cursor := make([]int64, g.n)
	copy(cursor, inStart[:g.n])
	for v := 0; v < g.n; v++ {
		for _, t := range g.outAdj[g.outStart[v]:g.outStart[v+1]] {
			inAdj[cursor[t]] = NodeID(v)
			cursor[t]++
		}
	}
	g.inStart, g.inAdj = inStart, inAdj
}

// Validate checks structural invariants: monotone offsets, in-range
// targets, and no self-loops. It returns a descriptive error for the
// first violation found.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("graph: negative node count %d", g.n)
	}
	if len(g.outStart) != g.n+1 {
		return fmt.Errorf("graph: outStart length %d, want %d", len(g.outStart), g.n+1)
	}
	if g.outStart[0] != 0 {
		return fmt.Errorf("graph: outStart[0] = %d, want 0", g.outStart[0])
	}
	if g.outStart[g.n] != int64(len(g.outAdj)) {
		return fmt.Errorf("graph: outStart[n] = %d, want %d", g.outStart[g.n], len(g.outAdj))
	}
	for v := 0; v < g.n; v++ {
		if g.outStart[v] > g.outStart[v+1] {
			return fmt.Errorf("graph: non-monotone offsets at node %d", v)
		}
		for _, t := range g.outAdj[g.outStart[v]:g.outStart[v+1]] {
			if t < 0 || int(t) >= g.n {
				return fmt.Errorf("graph: node %d links to out-of-range %d", v, t)
			}
			if int(t) == v {
				return fmt.Errorf("graph: node %d has a self-loop", v)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are dropped at Build time.
type Builder struct {
	n     int
	edges []edge
}

type edge struct{ from, to NodeID }

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: NewBuilder with negative n")
	}
	return &Builder{n: n}
}

// AddEdge records a link from -> to. It panics on out-of-range nodes;
// self-loops are silently ignored (documents do not link to themselves
// for ranking purposes).
func (b *Builder) AddEdge(from, to NodeID) {
	if from < 0 || int(from) >= b.n || to < 0 || int(to) >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range [0,%d)", from, to, b.n))
	}
	if from == to {
		return
	}
	b.edges = append(b.edges, edge{from, to})
}

// Build finalizes the graph. The builder can be reused afterwards; its
// edge list is reset. Each node's targets come out sorted ascending
// (the package-wide adjacency invariant); duplicates are dropped by
// sorting each node's range and skipping equal neighbours, so building
// never allocates per-node dedup maps.
func (b *Builder) Build() *Graph {
	// Counting sort by source, then sort-dedup targets per source.
	counts := make([]int64, b.n+1)
	for _, e := range b.edges {
		counts[e.from+1]++
	}
	for i := 0; i < b.n; i++ {
		counts[i+1] += counts[i]
	}
	sorted := make([]NodeID, len(b.edges))
	cursor := make([]int64, b.n)
	copy(cursor, counts[:b.n])
	for _, e := range b.edges {
		sorted[cursor[e.from]] = e.to
		cursor[e.from]++
	}
	outStart := make([]int64, b.n+1)
	outAdj := make([]NodeID, 0, len(sorted))
	for v := 0; v < b.n; v++ {
		lo, hi := counts[v], counts[v+1]
		targets := sorted[lo:hi]
		slices.Sort(targets)
		prev := NodeID(-1)
		for _, t := range targets {
			if t == prev {
				continue
			}
			prev = t
			outAdj = append(outAdj, t)
		}
		outStart[v+1] = int64(len(outAdj))
	}
	b.edges = b.edges[:0]
	return &Graph{n: b.n, outStart: outStart, outAdj: outAdj}
}

// FromAdjacency builds a graph directly from an out-link adjacency
// list, for tests and examples. Self-loops and duplicates are dropped.
func FromAdjacency(adj [][]NodeID) *Graph {
	b := NewBuilder(len(adj))
	for v, links := range adj {
		for _, t := range links {
			b.AddEdge(NodeID(v), t)
		}
	}
	return b.Build()
}
