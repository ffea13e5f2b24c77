package graph

import "fmt"

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
// computation runs: documents appear (section 3.1 inserts, which can
// later receive links), links are added when documents are edited, and
// links disappear. Reads are the
// Linker interface; mutations return enough information for the engine
// to patch the in-flight rank mass.
//
// Not safe for concurrent mutation; the PassEngine mutates only
// between passes.
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

// AddNode appends a new document with the given out-links and returns
// its id. Out-links must reference existing documents; self-links are
// rejected.
func (m *Mutable) AddNode(outlinks []NodeID) (NodeID, error) {
	id := NodeID(len(m.adj))
	seen := make(map[NodeID]struct{}, len(outlinks))
	links := make([]NodeID, 0, len(outlinks))
	for _, t := range outlinks {
		if t < 0 || int(t) >= len(m.adj) {
			return 0, fmt.Errorf("graph: AddNode out-link %d outside graph", t)
		}
		if t == id {
			return 0, fmt.Errorf("graph: AddNode self-link")
		}
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		links = append(links, t)
	}
	m.adj = append(m.adj, links)
	return id, nil
}

// AddLink inserts the link from -> to. It reports whether the link was
// new (false if it already existed).
func (m *Mutable) AddLink(from, to NodeID) (bool, error) {
	if err := m.check(from); err != nil {
		return false, err
	}
	if err := m.check(to); err != nil {
		return false, err
	}
	if from == to {
		return false, fmt.Errorf("graph: self-link %d", from)
	}
	for _, t := range m.adj[from] {
		if t == to {
			return false, nil
		}
	}
	m.adj[from] = append(m.adj[from], to)
	return true, nil
}

// RemoveLink deletes the link from -> to. It reports whether the link
// existed.
func (m *Mutable) RemoveLink(from, to NodeID) (bool, error) {
	if err := m.check(from); err != nil {
		return false, err
	}
	links := m.adj[from]
	for i, t := range links {
		if t == to {
			m.adj[from] = append(links[:i], links[i+1:]...)
			return true, nil
		}
	}
	return false, nil
}

func (m *Mutable) check(v NodeID) error {
	if v < 0 || int(v) >= len(m.adj) {
		return fmt.Errorf("graph: node %d outside graph", v)
	}
	return nil
}

// ClearOutLinks removes every out-link of v (used when a document is
// deleted: its row and column leave the matrix).
func (m *Mutable) ClearOutLinks(v NodeID) error {
	if err := m.check(v); err != nil {
		return err
	}
	m.adj[v] = nil
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
