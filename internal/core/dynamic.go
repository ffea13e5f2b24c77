package core

import (
	"fmt"
	"slices"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// Graph edits (section 3.1). An engine built over a graph.Mutable
// inserts, relinks and deletes documents between passes: it changes
// its own topology and sends the rank-mass correction through relink,
// as ordinary updates (a D-Iteration residual injection), and the next
// Run re-converges incrementally. Change the Mutable only through these
// calls.

// InsertDocument appends a document linking to links, places it on
// onPeer and pushes its starting rank, the no-in-links fixed point
// 1-d, along its out-links. It returns the new document's id, which
// later edits can link to. Engines with a Teleport vector cannot grow
// (the personalization is defined over a fixed document set).
func (e *PassEngine) InsertDocument(links []graph.NodeID, onPeer p2p.PeerID) (graph.NodeID, error) {
	m, err := e.mutable()
	switch {
	case err != nil:
		return 0, err
	case e.st.opt.Teleport != nil:
		return 0, fmt.Errorf("core: cannot grow a personalized (Teleport) computation")
	case onPeer < 0 || int(onPeer) >= e.net.NumPeers():
		return 0, fmt.Errorf("core: peer %d outside the network", onPeer)
	}
	d := graph.NodeID(m.NumNodes())
	if err := e.relink(m, d, links, onPeer, 0, 1-e.st.opt.Damping); err != nil {
		return 0, err
	}
	e.st.grow()
	e.incoming = append(e.incoming, 0)
	e.dirty = append(e.dirty, false)
	e.initialized = append(e.initialized, true)
	e.removed = append(e.removed, false)
	e.setShardRange(len(e.incoming))
	e.net.PlaceDoc(d, onPeer)
	return d, nil
}

// SetOutLinks replaces document d's out-links with links (an edit adds
// or drops links) and corrects what d has already sent along the old
// ones.
func (e *PassEngine) SetOutLinks(d graph.NodeID, links []graph.NodeID) error {
	m, err := e.editable(d)
	if err != nil {
		return err
	}
	return e.relink(m, d, links, e.net.PeerOf(d), e.st.last[d], e.st.last[d])
}

// RemoveDocument deletes document d, its row and its column: every
// document linking to d drops the link, d retracts everything it has
// sent, its rank drops to zero and it receives nothing more. The
// linkers are found by scanning the topology, O(E) per deletion.
func (e *PassEngine) RemoveDocument(d graph.NodeID) error {
	m, err := e.editable(d)
	if err != nil {
		return err
	}
	for u := range graph.NodeID(m.NumNodes()) {
		links := m.OutLinks(u)
		if i, found := slices.BinarySearch(links, d); found {
			without := slices.Delete(slices.Clone(links), i, i+1)
			if err := e.relink(m, u, without, e.net.PeerOf(u), e.st.last[u], e.st.last[u]); err != nil {
				return err
			}
		}
	}
	if err := e.relink(m, d, nil, e.net.PeerOf(d), e.st.last[d], 0); err != nil {
		return err
	}
	e.removed[d] = true
	if !e.initialized[d] {
		e.initialized[d] = true
		e.uninitialized--
	}
	e.st.rank[d], e.st.last[d], e.st.acc[d], e.incoming[d] = 0, 0, 0, 0
	return nil
}

// relink is the one correction every edit sends. It sets d's out-links
// to links and moves the mass d has propagated from oldMass, spread
// over the old links, to newMass, spread over the new ones: each target
// gets newShare - oldShare, where a share is damping*mass/out-degree on
// its own list and 0 off it. So a dropped target gets -oldShare and an
// added one +newShare. Both lists are ascending, so one merge visits
// every target once. A link to a removed document is refused.
func (e *PassEngine) relink(m *graph.Mutable, d graph.NodeID, links []graph.NodeID, fromPeer p2p.PeerID, oldMass, newMass float64) error {
	for _, t := range links {
		if t >= 0 && int(t) < len(e.removed) && e.removed[t] {
			return fmt.Errorf("core: document %d cannot link to removed document %d", d, t)
		}
	}
	var old []graph.NodeID
	if int(d) < m.NumNodes() {
		old = m.OutLinks(d)
	}
	if err := m.SetOutLinks(d, links); err != nil {
		return err
	}
	cur := m.OutLinks(d)
	share := func(mass float64, list []graph.NodeID) float64 {
		if len(list) == 0 {
			return 0
		}
		return e.st.opt.Damping * mass / float64(len(list))
	}
	oldShare, newShare := share(oldMass, old), share(newMass, cur)
	for i, j := 0, 0; i < len(old) || j < len(cur); {
		var u p2p.Update
		switch {
		case j == len(cur) || i < len(old) && old[i] < cur[j]:
			u = p2p.Update{Doc: old[i], Delta: -oldShare}
			i++
		case i == len(old) || cur[j] < old[i]:
			u = p2p.Update{Doc: cur[j], Delta: newShare}
			j++
		default:
			u = p2p.Update{Doc: cur[j], Delta: newShare - oldShare}
			i++
			j++
		}
		if u.Delta != 0 {
			e.deliver(fromPeer, u)
		}
	}
	e.counters.InterPeerMsgs += e.passInter
	e.counters.IntraPeerMsgs += e.passIntra
	e.passInter, e.passIntra = 0, 0
	return nil
}

// mutable returns the engine's topology when it can be edited.
func (e *PassEngine) mutable() (*graph.Mutable, error) {
	m, ok := e.st.g.(*graph.Mutable)
	if !ok {
		return nil, fmt.Errorf("core: the topology is not a graph.Mutable and cannot be edited")
	}
	return m, nil
}

// editable returns the engine's topology when it can be edited and d
// is a live document in it.
func (e *PassEngine) editable(d graph.NodeID) (*graph.Mutable, error) {
	if d < 0 || int(d) >= len(e.removed) || e.removed[d] {
		return nil, fmt.Errorf("core: document %d is not in the engine", d)
	}
	return e.mutable()
}
