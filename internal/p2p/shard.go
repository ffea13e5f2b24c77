package p2p

import (
	"cmp"
	"slices"

	"dpr/internal/graph"
)

// shard is one peer's routing and adjacency, sized by its own rows and
// their out-links rather than by the graph (DESIGN.md §13): each row's
// out-links, copied out of the graph once, each with the outbox its
// updates go to; the documents routed away from the placement; and the
// directory Fold finds a document's row through, which relies on the
// rows being kept ascending by document. A document's owner is decided
// in one place, ownerLocked, and the links carry its answer, refreshed
// by every change of rows or routes.
type shard struct {
	off   []int32 // row i's out-links are links[off[i]:off[i+1]]
	links []route // in the graph's link order
	moved []route // by document: every document shed or named by SetOwner
	index docIndex

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

// docIndex finds a document's row in an ascending document column
// through a directory of buckets: dir[k] is the first row whose
// document is at least k<<shift, so bucket k's rows are dir[k]:dir[k+1].
// shift is the least that makes no more buckets than half the rows,
// about 2–4 rows a bucket: ≤ 2 B a row, sized by the rows, never by the
// graph.
type docIndex struct {
	dir   []int32
	shift uint8
}

func newDocIndex(docs []graph.NodeID) (x docIndex) {
	top := uint32(0)
	if len(docs) > 0 {
		top = uint32(docs[len(docs)-1])
	}
	for top>>x.shift+2 > uint32(max(2, len(docs)/2)) {
		x.shift++
	}
	x.dir = make([]int32, 0, top>>x.shift+2)
	for i, d := range docs {
		for len(x.dir) <= int(uint32(d)>>x.shift) {
			x.dir = append(x.dir, int32(i))
		}
	}
	x.dir = append(x.dir, int32(len(docs)))
	return x
}

// find returns d's row in docs, the column the index was built over,
// -1 when d is not in it.
//
//dpr:hotpath
func (x *docIndex) find(docs []graph.NodeID, d graph.NodeID) int32 {
	k := uint(uint32(d) >> x.shift)
	if k+1 >= uint(len(x.dir)) {
		return -1
	}
	lo, hi := x.dir[k], x.dir[k+1]
	if hi-lo > bucketRows || int(lo)+bucketRows > len(docs) {
		// A crowded bucket (a skewed column's) or the column's end: a
		// binary search, so a lookup is never worse than O(log rows).
		if i, ok := slices.BinarySearch(docs[lo:hi], d); ok {
			return lo + int32(i)
		}
		return -1
	}
	// d's row, if held, is lo plus the rows before d, counted without a
	// branch: the rows past the bucket hold later documents.
	w, n := (*[bucketRows]graph.NodeID)(docs[lo:]), int32(0)
	for _, r := range w {
		n += int32(uint32(r-d) >> 31) // r < d: neither is negative here
	}
	if n < hi-lo && w[n&(bucketRows-1)] == d {
		return lo + n
	}
	return -1
}

// bucketRows is the most rows find counts in a bucket without a branch.
const bucketRows = 8

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
// d's row, else where SetOwner or Shed last sent d, else its owner in
// the placement.
func (r *Ranker) ownerLocked(d graph.NodeID) PeerID {
	o := r.placed(d)
	if (o == r.id || !r.placedHere) && r.index.find(r.docs, d) >= 0 {
		return r.id
	}
	if i, ok := slices.BinarySearchFunc(r.moved, d, func(m route, d graph.NodeID) int { return cmp.Compare(m.doc, d) }); ok {
		return r.moved[i].owner()
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

// moveLocked routes docs to owner in moved and returns them ascending,
// each once.
func (r *Ranker) moveLocked(docs []graph.NodeID, owner PeerID) []graph.NodeID {
	docs = slices.Clone(docs)
	slices.Sort(docs)
	docs = slices.Compact(docs)
	old, named := r.moved, docs
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
	return named
}
