package graph

import (
	"fmt"
	"slices"
)

// Linker is the read interface engines need from a document graph:
// out-link structure only (the distributed algorithm never needs
// in-links — mass arrives as messages).
type Linker interface {
	NumNodes() int
	OutDegree(v NodeID) int
	OutLinks(v NodeID) []NodeID
}

var _ Linker = (*Graph)(nil)
var _ Linker = (*Mutable)(nil)

// Mutable is a document graph whose topology can change while a
// computation runs (section 3.1): a document appears, its out-links are
// replaced when it is edited, and a deleted one keeps its id with no
// links in or out. Reads are the Linker interface; SetOutLinks is the
// one mutation. A PassEngine built over a Mutable makes every change
// itself, between passes, and sends the rank-mass correction with it.
//
// Not safe for concurrent mutation.
type Mutable struct {
	adj [][]NodeID
}

// NewMutable copies a static graph into mutable form. A nil graph
// yields an empty mutable graph.
func NewMutable(g *Graph) *Mutable {
	m := &Mutable{}
	if g == nil {
		return m
	}
	m.adj = make([][]NodeID, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		links := g.OutLinks(NodeID(v))
		m.adj[v] = append([]NodeID(nil), links...)
	}
	return m
}

// NumNodes returns the current document count.
func (m *Mutable) NumNodes() int { return len(m.adj) }

// OutDegree returns v's current out-link count.
func (m *Mutable) OutDegree(v NodeID) int { return len(m.adj[v]) }

// OutLinks returns v's out-links. Shared slice; do not modify.
func (m *Mutable) OutLinks(v NodeID) []NodeID { return m.adj[v] }

// SetOutLinks replaces v's out-links with links, or appends document v
// when v is NumNodes(). Every link must name an existing document other
// than v. The links are stored deduplicated in ascending order, the
// adjacency invariant of every Graph constructor, in a slice of their
// own: a list OutLinks returned before the call keeps its contents.
func (m *Mutable) SetOutLinks(v NodeID, links []NodeID) error {
	if v < 0 || int(v) > len(m.adj) {
		return fmt.Errorf("graph: node %d outside graph", v)
	}
	links = slices.Clone(links)
	slices.Sort(links)
	links = slices.Compact(links)
	for _, t := range links {
		if t < 0 || int(t) >= len(m.adj) {
			return fmt.Errorf("graph: node %d links to %d, outside graph", v, t)
		}
		if t == v {
			return fmt.Errorf("graph: self-link %d", v)
		}
	}
	if int(v) == len(m.adj) {
		m.adj = append(m.adj, links)
	} else {
		m.adj[v] = links
	}
	return nil
}

// Snapshot freezes the current topology into an immutable Graph
// (useful for running the centralized solver against the same
// structure).
func (m *Mutable) Snapshot() *Graph {
	b := NewBuilder(len(m.adj))
	for v, links := range m.adj {
		for _, t := range links {
			b.AddEdge(NodeID(v), t)
		}
	}
	return b.Build()
}
