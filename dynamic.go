package dpr

import (
	"fmt"

	"dpr/internal/core"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

// DynamicSession is a long-lived network whose document topology
// itself evolves: documents are added (and can later *receive* links,
// unlike Session.InsertDocument's send-only ghost model), links are
// added and removed as documents are edited, and documents are
// deleted. After every change the ranks re-converge incrementally —
// the "continuously accurate pageranks" the paper's introduction
// promises.
type DynamicSession struct {
	m      *graph.Mutable
	engine *core.PassEngine
	net    *p2p.Network
	r      *rng.Rand
}

// NewDynamicSession starts from an initial graph (which may be empty:
// pass a zero-node graph) and converges it.
func NewDynamicSession(g *Graph, opt Options) (*DynamicSession, error) {
	opt = opt.withDefaults()
	if opt.Teleport != nil {
		return nil, fmt.Errorf("dpr: dynamic sessions cannot use Teleport (fixed document set)")
	}
	net, coreOpt, err := opt.place(g)
	if err != nil {
		return nil, err
	}
	m := graph.NewMutable(g)
	e, err := core.NewPassEngine(m, net, nil, coreOpt)
	if err != nil {
		return nil, err
	}
	res := e.Run()
	if !res.Converged {
		return nil, fmt.Errorf("dpr: initial computation did not converge in %d passes", res.Passes)
	}
	return &DynamicSession{m: m, engine: e, net: net, r: rng.New(opt.Seed + 7)}, nil
}

// Ranks returns the current pageranks (live view).
func (s *DynamicSession) Ranks() []float64 { return s.engine.Ranks() }

// NumDocuments returns the current topology size (including removed
// documents, whose ranks are zero).
func (s *DynamicSession) NumDocuments() int { return s.m.NumNodes() }

// AddDocument inserts a brand-new document with the given out-links,
// placed on a random peer, and re-converges. The returned id can be
// linked to by later AddLink calls — the full section 3.1 insert.
func (s *DynamicSession) AddDocument(outlinks []NodeID) (NodeID, error) {
	id, err := s.m.AddNode(outlinks)
	if err != nil {
		return 0, err
	}
	peer := p2p.PeerID(s.r.Intn(s.net.NumPeers()))
	if err := s.engine.AttachDocument(id, peer); err != nil {
		return 0, err
	}
	return id, s.reconverge()
}

// AddLink records that document from was edited to link to document
// to, and re-converges. Adding an existing link is a no-op.
func (s *DynamicSession) AddLink(from, to NodeID) error {
	old := append([]NodeID(nil), s.m.OutLinks(from)...)
	changed, err := s.m.AddLink(from, to)
	if err != nil {
		return err
	}
	if !changed {
		return nil
	}
	if err := s.engine.UpdateOutlinks(from, old); err != nil {
		return err
	}
	return s.reconverge()
}

// RemoveLink deletes the link from -> to and re-converges. Removing a
// non-existent link is a no-op.
func (s *DynamicSession) RemoveLink(from, to NodeID) error {
	old := append([]NodeID(nil), s.m.OutLinks(from)...)
	changed, err := s.m.RemoveLink(from, to)
	if err != nil {
		return err
	}
	if !changed {
		return nil
	}
	if err := s.engine.UpdateOutlinks(from, old); err != nil {
		return err
	}
	return s.reconverge()
}

// RemoveDocument deletes a document: its contributions are retracted,
// its rank drops to zero, its out-links leave the topology (the
// paper's "deleting its row and its corresponding column from the A
// matrix"), and the ranks re-converge.
func (s *DynamicSession) RemoveDocument(d NodeID) error {
	if err := s.engine.RemoveDoc(d); err != nil {
		return err
	}
	if err := s.m.ClearOutLinks(d); err != nil {
		return err
	}
	return s.reconverge()
}

// NetworkMessages reports total cross-peer updates so far.
func (s *DynamicSession) NetworkMessages() int64 {
	return s.engine.Counters().InterPeerMsgs
}

// Snapshot freezes the current topology as an immutable Graph, e.g.
// to compare against the centralized solver.
func (s *DynamicSession) Snapshot() *Graph { return s.m.Snapshot() }

// Passes reports total passes executed so far.
func (s *DynamicSession) Passes() int { return s.engine.Pass() }

func (s *DynamicSession) reconverge() error {
	res := s.engine.Run()
	if !res.Converged {
		return fmt.Errorf("dpr: re-convergence incomplete after %d passes", res.Passes)
	}
	return nil
}
