package wire

import (
	"fmt"
	"sync"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/telemetry"
)

// ranker is the transport-independent per-peer computation: the
// chaotic-iteration state for the documents one peer owns. All methods
// are safe for concurrent use, except that fold's results alias scratch
// the next fold overwrites.
//
// Under dynamic membership the document set is mutable: adopt appends
// a departed peer's rows, shed extracts rows for a joining peer, and
// setOwner rewrites the routing table. Each ranker owns a private
// route table so a membership change pushed to one peer can never race
// another peer's routing reads.
type ranker struct {
	id      p2p.PeerID
	g       *graph.Graph
	damping float64
	epsilon float64

	// mass mirrors sum(rank) into the telemetry registry: Set on
	// (re)initialisation, Add on every fold/adopt/shed. Per-peer
	// gauges merge into the cluster's total rank mass.
	mass *telemetry.Gauge

	mu sync.Mutex
	// route holds one word per document: the index of the document's
	// row when this peer holds it, else remoteWord(owner). A held row
	// therefore always wins over whatever owner the table was told.
	route []int32
	docs  []graph.NodeID
	rank  []float64
	acc   []float64
	last  []float64

	// Fold scratch, reused from fold to fold. stamp[row] == gen marks a
	// row dirty in the current fold.
	stamp []uint32
	gen   uint32
	dirty []int32
	out   outbox
	fwd   []p2p.Update
}

// remoteWord encodes "held by owner, no row here": NoPeer is -1, peer
// 0 is -2, and so on, so ^word is the owner's outbox slot.
func remoteWord(owner p2p.PeerID) int32 { return -2 - int32(owner) }

// wordOwner decodes a route word into the owning peer.
func (r *ranker) wordOwner(w int32) p2p.PeerID {
	if w >= 0 {
		return r.id
	}
	return p2p.PeerID(-2 - w)
}

// outbox collects updates per destination, indexed by PeerID+1: slot 0
// takes updates for documents no peer owns (NoPeer).
type outbox [][]p2p.Update

// cover grows the outbox to hold a slot for dest.
func (o *outbox) cover(dest p2p.PeerID) {
	for int(dest)+1 >= len(*o) {
		*o = append(*o, nil)
	}
}

func newRanker(cfg PeerConfig, mass *telemetry.Gauge) *ranker {
	r := &ranker{
		id:      cfg.ID,
		g:       cfg.Graph,
		route:   make([]int32, len(cfg.DocPeer)),
		damping: cfg.Damping,
		epsilon: cfg.Epsilon,
		mass:    mass,
		docs:    append([]graph.NodeID(nil), cfg.Docs...),
		rank:    make([]float64, len(cfg.Docs)),
		acc:     make([]float64, len(cfg.Docs)),
		last:    make([]float64, len(cfg.Docs)),
		stamp:   make([]uint32, len(cfg.Docs)),
	}
	last := r.id
	for d, owner := range cfg.DocPeer {
		r.route[d] = remoteWord(owner)
		last = max(last, owner)
	}
	r.out.cover(last)
	for i, d := range cfg.Docs {
		r.route[d] = int32(i)
		r.rank[i] = 1 - cfg.Damping
	}
	r.mass.Set(float64(len(cfg.Docs)) * (1 - cfg.Damping))
	return r
}

// resetMass recomputes the mass gauge from the current rows; used
// after a checkpoint restore overwrites the ranker arrays wholesale.
func (r *ranker) resetMass() {
	r.mu.Lock()
	total := 0.0
	for _, v := range r.rank {
		total += v
	}
	r.mu.Unlock()
	r.mass.Set(total)
}

// initialOut builds the initial-push batches in an outbox of their
// own: Start may run while the processing loop is already folding.
func (r *ranker) initialOut() outbox {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(outbox, len(r.out))
	for i, d := range r.docs {
		r.collectLocked(int32(i), d, out)
	}
	return out
}

// fold applies a batch of updates and returns the consequent batches,
// the updates for documents this peer does not hold, and the delta
// mass it did fold. Misrouted updates are NOT dropped — under dynamic
// membership they raced an ownership migration, and the caller must
// forward them to the current owner so no rank mass is ever lost.
//
// out and fwd are the ranker's scratch, valid until the next fold. The
// batch may be the previous fold's self-directed slot of out: it is
// read to the end before out is refilled.
//
//dpr:hotpath
func (r *ranker) fold(batch []p2p.Update) (out outbox, fwd []p2p.Update, folded float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	if r.gen == 0 { // uint32 wrap: forget every stamp the slow way
		clear(r.stamp)
		r.gen = 1
	}
	dirty, fwd := reuse(r.dirty), reuse(r.fwd)
	for _, u := range batch {
		if uint32(u.Doc) >= uint32(len(r.route)) || r.route[u.Doc] < 0 {
			fwd = append(fwd, u)
			continue
		}
		i := r.route[u.Doc]
		r.acc[i] += u.Delta
		folded += u.Delta
		if r.stamp[i] != r.gen {
			r.stamp[i] = r.gen
			dirty = append(dirty, i)
		}
	}
	for slot := range r.out {
		r.out[slot] = reuse(r.out[slot])
	}
	massDelta := 0.0
	for _, i := range dirty {
		old := r.rank[i]
		fresh := (1 - r.damping) + r.acc[i]
		r.rank[i] = fresh
		massDelta += fresh - old
		denom := fresh
		if denom < 0 {
			denom = -denom
		}
		if denom == 0 {
			denom = 1
		}
		diff := fresh - old
		if diff < 0 {
			diff = -diff
		}
		if diff/denom > r.epsilon {
			r.collectLocked(i, r.docs[i], r.out)
		}
	}
	if massDelta != 0 {
		r.mass.Add(massDelta)
	}
	r.dirty, r.fwd = dirty, fwd
	return r.out, fwd, folded
}

// collectLocked batches document d's pending delta per destination.
// Caller holds mu; out covers every owner the route table names.
//
//dpr:hotpath
func (r *ranker) collectLocked(i int32, d graph.NodeID, out outbox) {
	links := r.g.OutLinks(d)
	if len(links) == 0 {
		r.last[i] = r.rank[i]
		return
	}
	share := r.damping * (r.rank[i] - r.last[i]) / float64(len(links))
	if share == 0 {
		r.last[i] = r.rank[i]
		return
	}
	self := int32(r.id) + 1
	for _, t := range links {
		slot := self
		if w := r.route[t]; w < 0 {
			slot = ^w
		}
		out[slot] = append(out[slot], p2p.Update{Doc: t, Delta: share})
	}
	r.last[i] = r.rank[i]
}

// forwardOut sorts updates a fold refused by their documents' current
// owners, in an outbox of its own; documents held by now (adopted
// between fold and forward) land in this peer's own slot. Updates with
// no resolvable owner — nobody's, or this peer's by a transiently
// inconsistent table but without a row — are counted in dropped.
func (r *ranker) forwardOut(fwd []p2p.Update) (out outbox, dropped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out = make(outbox, len(r.out))
	for _, u := range fwd {
		w := remoteWord(p2p.NoPeer)
		if uint32(u.Doc) < uint32(len(r.route)) {
			w = r.route[u.Doc]
		}
		owner := r.wordOwner(w)
		if w < 0 && (owner == r.id || owner == p2p.NoPeer) {
			dropped++
			continue
		}
		out[owner+1] = append(out[owner+1], u)
	}
	return out, dropped
}

// ownerTable returns a snapshot of the routing table, decoded.
func (r *ranker) ownerTable() []p2p.PeerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	table := make([]p2p.PeerID, len(r.route))
	for d, w := range r.route {
		table[d] = r.wordOwner(w)
	}
	return table
}

// rerouteOwner repoints every routing entry held by from at to,
// except documents this ranker itself holds. Used when a merged view
// reveals that a slot's range moved (departed peer with a forwarding
// successor, or a fenced slot reconciled to a higher-epoch owner).
func (r *ranker) rerouteOwner(from, to p2p.PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.cover(to)
	for d, w := range r.route {
		if w == remoteWord(from) {
			r.route[d] = remoteWord(to)
		}
	}
}

// setOwner points the routing table entries for docs at owner. New
// outbound updates for those documents route to the new owner from
// the next fold on. Documents this ranker holds keep their rows: rows
// only ever leave through shed.
func (r *ranker) setOwner(docs []graph.NodeID, owner p2p.PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.cover(owner)
	for _, d := range docs {
		if uint32(d) < uint32(len(r.route)) && r.route[d] < 0 {
			r.route[d] = remoteWord(owner)
		}
	}
}

// adopt appends a migrated document range: the rows arrive mid-flight
// from a handoff snapshot and continue exactly where the previous
// owner's last fold left them (rank/acc committed, last marking what
// has already been pushed downstream). Adopted docs are immediately
// marked self-owned in the routing table.
func (r *ranker) adopt(docs []graph.NodeID, rank, acc, last []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	adopted := 0.0
	for i, d := range docs {
		if uint32(d) >= uint32(len(r.route)) || r.route[d] >= 0 {
			continue // already ours (e.g. replayed handoff); keep our state
		}
		r.route[d] = int32(len(r.docs))
		r.docs = append(r.docs, d)
		r.rank = append(r.rank, rank[i])
		r.acc = append(r.acc, acc[i])
		r.last = append(r.last, last[i])
		r.stamp = append(r.stamp, 0)
		adopted += rank[i]
	}
	if adopted != 0 {
		r.mass.Add(adopted)
	}
}

// shed extracts the rows for docs (handing them to a joining peer) and
// atomically repoints the routing table at newOwner, so an update for
// a shed document arriving in the very next fold is forwarded rather
// than folded into state that already left.
func (r *ranker) shed(docs []graph.NodeID, newOwner p2p.PeerID) (rank, acc, last []float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rank = make([]float64, len(docs))
	acc = make([]float64, len(docs))
	last = make([]float64, len(docs))
	extracted := 0.0
	for i, d := range docs {
		if uint32(d) >= uint32(len(r.route)) || r.route[d] < 0 {
			return nil, nil, nil, fmt.Errorf("wire: peer %d cannot shed doc %d it does not own", r.id, d)
		}
		j := r.route[d]
		rank[i], acc[i], last[i] = r.rank[j], r.acc[j], r.last[j]
		extracted += rank[i]
	}
	r.out.cover(newOwner)
	for _, d := range docs {
		r.route[d] = remoteWord(newOwner)
	}
	// Close the gaps: a row stays iff the route table still points into
	// the rows, and is renumbered as it moves down.
	keep := 0
	for j, d := range r.docs {
		if r.route[d] < 0 {
			continue
		}
		r.route[d] = int32(keep)
		r.docs[keep], r.rank[keep], r.acc[keep], r.last[keep] = d, r.rank[j], r.acc[j], r.last[j]
		keep++
	}
	r.docs, r.rank, r.acc, r.last = r.docs[:keep], r.rank[:keep], r.acc[:keep], r.last[:keep]
	r.stamp = r.stamp[:keep]
	clear(r.stamp)
	if extracted != 0 {
		r.mass.Add(-extracted)
	}
	return rank, acc, last, nil
}

// snapshotRanks returns (docs, ranks) for collection.
func (r *ranker) snapshotRanks() ([]graph.NodeID, []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	docs := append([]graph.NodeID(nil), r.docs...)
	ranks := append([]float64(nil), r.rank...)
	return docs, ranks
}
