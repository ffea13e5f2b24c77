package p2p

import (
	"cmp"
	"math/bits"
	"slices"

	"dpr/internal/graph"
)

// shard is one peer's routing and adjacency, sized by its own rows and
// their out-links rather than by the graph (DESIGN.md §13): each row's
// out-links, copied out of the graph once, each with the outbox its
// updates go to; the documents routed away from the placement; and the
// open-addressed document → row index that Fold probes. A document's
// owner is decided in one place, ownerLocked, and the links carry its
// answer, refreshed by every change of rows or routes.
type shard struct {
	off   []int32 // row i's out-links are links[off[i]:off[i+1]]
	links []route // in the graph's link order
	moved []route // by document: every document shed or named by SetOwner
	index docIndex

	// curOf[o+1] is where RerouteOwner has moved placement owner o's
	// documents; owners past its end have not moved.
	curOf []PeerID

	// placedHere: every held row's document is placed at this peer, so a
	// document placed elsewhere is not held and needs no probe.
	placedHere bool
}

// route sends a document's updates to outbox box: its owner's PeerID+1.
type route struct {
	doc graph.NodeID
	box int32
}

func (r route) owner() PeerID { return PeerID(r.box - 1) }

// docIndex maps documents to their positions in the list it was built
// from: open addressing, at most half full.
type docIndex struct {
	keys  []docKey
	shift uint8 // 32 − log2(len(keys))
}

// docKey is one entry; at is the position plus one, 0 marking an empty
// entry.
type docKey struct {
	doc graph.NodeID
	at  int32
}

func newDocIndex(docs []graph.NodeID) docIndex {
	lg := bits.Len(uint(2 * len(docs)))
	x := docIndex{keys: make([]docKey, 1<<lg), shift: uint8(32 - lg)}
	mask := uint32(len(x.keys) - 1)
	for i, d := range docs {
		h := (uint32(d) * 0x9e3779b9) >> x.shift
		for x.keys[h].at != 0 {
			h = (h + 1) & mask
		}
		x.keys[h] = docKey{doc: d, at: int32(i) + 1}
	}
	return x
}

// find returns d's position, -1 when d is not in the index.
//
//dpr:hotpath
func (x *docIndex) find(d graph.NodeID) int32 {
	mask := uint32(len(x.keys) - 1)
	for h := (uint32(d) * 0x9e3779b9) >> x.shift; ; h = (h + 1) & mask {
		switch e := x.keys[h]; {
		case e.at == 0:
			return -1
		case e.doc == d:
			return e.at - 1
		}
	}
}

// compileLocked rebuilds the shard around the rows in r.docs: the
// index, the out-links of rows from on, copied out of the graph (the
// rows before keep theirs), and every link's outbox. Cold: NewRanker,
// Adopt and Shed.
func (r *Ranker) compileLocked(from int) {
	r.index = newDocIndex(r.docs)
	r.placedHere = true
	for _, d := range r.docs {
		r.placedHere = r.placedHere && r.placed(d) == r.id
	}

	r.off = append(r.off[:from+1], make([]int32, len(r.docs)-from)...)
	n := r.off[from]
	for i, d := range r.docs[from:] {
		n += int32(len(r.cur.OutLinks(d)))
		r.off[from+i+1] = n
	}
	r.links = slices.Grow(r.links[:r.off[from]], int(n-r.off[from]))
	for _, d := range r.docs[from:] {
		for _, t := range r.cur.OutLinks(d) {
			r.links = append(r.links, route{doc: t})
		}
	}
	r.relinkLocked()
}

// relinkLocked points every out-link at its document's current owner.
func (r *Ranker) relinkLocked() {
	top := r.id
	for i := range r.links {
		o := r.ownerLocked(r.links[i].doc)
		r.links[i].box = int32(o) + 1
		top = max(top, o)
	}
	r.cover(top)
}

// ownerLocked is where an update for d goes: this peer when it holds
// d's row, else where SetOwner or Shed last sent d, else the placement's
// owner through every RerouteOwner since.
func (r *Ranker) ownerLocked(d graph.NodeID) PeerID {
	o := r.placed(d)
	if (o == r.id || !r.placedHere) && r.index.find(d) >= 0 {
		return r.id
	}
	if i, ok := slices.BinarySearchFunc(r.moved, d, func(m route, d graph.NodeID) int { return cmp.Compare(m.doc, d) }); ok {
		return r.moved[i].owner()
	}
	if int(o)+1 < len(r.curOf) {
		return r.curOf[o+1]
	}
	return o
}

// placed is d's owner in the placement, NoPeer past its end.
func (r *Ranker) placed(d graph.NodeID) PeerID {
	if uint32(d) >= uint32(len(r.placement)) {
		return NoPeer
	}
	return r.placement[d]
}

// moveLocked routes docs to owner in moved.
func (r *Ranker) moveLocked(docs []graph.NodeID, owner PeerID) {
	docs = slices.Clone(docs)
	slices.Sort(docs)
	docs = slices.Compact(docs)
	old := r.moved
	r.moved = make([]route, 0, len(old)+len(docs))
	for len(old) > 0 || len(docs) > 0 {
		if len(docs) == 0 || len(old) > 0 && old[0].doc < docs[0] {
			r.moved, old = append(r.moved, old[0]), old[1:]
			continue
		}
		if len(old) > 0 && old[0].doc == docs[0] {
			old = old[1:]
		}
		r.moved, docs = append(r.moved, route{doc: docs[0], box: int32(owner) + 1}), docs[1:]
	}
}
