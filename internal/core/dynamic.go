package core

import (
	"fmt"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// Dynamic-topology support (section 3.1). A new document appears in
// the topology, so later edits can link to it. Build the engine over a
// graph.Mutable, mutate the topology between passes, and call these
// methods (and RemoveDoc) to patch the in-flight rank mass; the
// computation then re-converges incrementally.

// AttachDocument registers a document that was just appended to the
// engine's mutable topology (its id must be the next unused id, i.e.
// topology mutation first, then attach). The document is placed on
// onPeer, starts at the no-in-links fixed point, and pushes its
// initial contributions. Engines with a Teleport vector cannot grow
// (the personalization is defined over a fixed document set).
func (e *PassEngine) AttachDocument(d graph.NodeID, onPeer p2p.PeerID) error {
	if e.st.opt.Teleport != nil {
		return fmt.Errorf("core: cannot grow a personalized (Teleport) computation")
	}
	if int(d) != len(e.st.rank) {
		return fmt.Errorf("core: AttachDocument %d out of order (next is %d)", d, len(e.st.rank))
	}
	if int(d) >= e.st.g.NumNodes() {
		return fmt.Errorf("core: document %d not present in the topology (mutate first)", d)
	}
	e.st.grow()
	e.incoming = append(e.incoming, 0)
	e.dirty = append(e.dirty, false)
	e.initialized = append(e.initialized, true)
	e.removed = append(e.removed, false)
	e.setShardRange(len(e.incoming))
	e.net.PlaceDoc(d, onPeer)
	e.push(d) // pendingDelta is the full starting rank (1-d)
	e.counters.InterPeerMsgs += e.passInter
	e.counters.IntraPeerMsgs += e.passIntra
	e.passInter, e.passIntra = 0, 0
	return nil
}

// UpdateOutlinks patches the engine after document d's out-link set
// changed in the mutable topology (links added on edit, links removed
// on edit or because their target vanished). oldLinks is the set
// before the change; the current set is read from the topology. The
// engine sends corrections so every target ends up holding exactly
// d * lastSent / newOutdeg of d's propagated rank:
//
//	removed targets receive -oldShare,
//	kept targets receive newShare - oldShare,
//	added targets receive +newShare.
func (e *PassEngine) UpdateOutlinks(d graph.NodeID, oldLinks []graph.NodeID) error {
	if d < 0 || int(d) >= e.st.g.NumNodes() || int(d) >= len(e.st.rank) {
		return fmt.Errorf("core: UpdateOutlinks %d outside engine", d)
	}
	if e.removed[d] {
		return fmt.Errorf("core: UpdateOutlinks on removed document %d", d)
	}
	newLinks := e.st.g.OutLinks(d)
	last := e.st.last[d]
	var oldShare, newShare float64
	if len(oldLinks) > 0 {
		oldShare = e.st.opt.Damping * last / float64(len(oldLinks))
	}
	if len(newLinks) > 0 {
		newShare = e.st.opt.Damping * last / float64(len(newLinks))
	}
	deltas := make(map[graph.NodeID]float64, len(oldLinks)+len(newLinks))
	for _, t := range oldLinks {
		deltas[t] -= oldShare
	}
	for _, t := range newLinks {
		deltas[t] += newShare
	}
	fromPeer := e.net.PeerOf(d)
	// Deterministic delivery order: new links first (slice order),
	// then removed-only targets in old order.
	seen := make(map[graph.NodeID]struct{}, len(newLinks))
	ordered := make([]graph.NodeID, 0, len(deltas))
	for _, t := range newLinks {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			ordered = append(ordered, t)
		}
	}
	for _, t := range oldLinks {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			ordered = append(ordered, t)
		}
	}
	for _, t := range ordered {
		if delta := deltas[t]; delta != 0 {
			e.deliver(fromPeer, p2p.Update{Doc: t, Delta: delta})
		}
	}
	e.counters.InterPeerMsgs += e.passInter
	e.counters.IntraPeerMsgs += e.passIntra
	e.passInter, e.passIntra = 0, 0
	return nil
}
