package p2p

import (
	"math"
	"math/bits"

	"dpr/internal/graph"
)

// Update is one pagerank-update message: "add Delta to document Doc's
// incoming rank mass". Document deletes send negative deltas
// (section 3.1). On the wire a message is a 128-bit GUID plus a 64-bit
// rank value, 24 bytes (section 4.6.1).
type Update struct {
	Doc   graph.NodeID
	Delta float64
}

// UpdateWireBytes is the on-the-wire size of one update message.
const UpdateWireBytes = 24

// RetryQueue implements the paper's store-and-retry protocol: "when a
// peer is detected as unavailable, update messages are stored at the
// sender and periodically resent until delivered successfully". The
// simulation keeps one logical queue per destination peer; state-size
// accounting (the paper notes worst case scales with the sum of
// out-links in a peer) is exposed via Len and MaxLen.
type RetryQueue struct {
	dests   []destQueue // indexed by destination+1, so NoPeer parks in slot 0
	active  int         // destinations with queued updates
	size    int
	maxSize int
	merges  int
}

// destQueue is one destination's FIFO and its coalescing index: an
// open-addressed table from document to the absolute position of its
// queued entry (how many entries were queued for the destination
// before it, modulo 2^31). Draining advances head and base and never
// touches the table: a slot is believed only if its position falls in
// the queued window and the entry there is for the slot's document.
// Any other slot is the leftover of a drained entry, overwritten when
// its document is queued again (DESIGN.md §13).
type destQueue struct {
	us        []Update // us[head:] is queued, oldest first
	head      int
	base      uint32 // absolute position of us[head]
	peak      int    // most entries queued at once since last empty
	slots     []slot // power-of-two length; nil until the first DeferMerge
	shift     uint8  // 32 - log2(len(slots))
	used      int    // occupied slots, leftovers included
	unindexed bool   // Defer appended behind the table's back
}

type slot struct {
	doc graph.NodeID
	pos uint32 // occupied | absolute position; 0 marks an empty slot
}

const (
	occupied = 1 << 31
	posMask  = occupied - 1
	minSlots = 16
)

// NewRetryQueue returns an empty queue.
func NewRetryQueue() *RetryQueue { return &RetryQueue{} }

// queue returns dest's queue, growing the table to reach it.
func (q *RetryQueue) queue(dest PeerID) *destQueue {
	for int(dest)+1 >= len(q.dests) {
		q.dests = append(q.dests, destQueue{})
	}
	return &q.dests[dest+1]
}

// push appends u to dq, reclaiming the drained prefix in place when
// that avoids growing the storage.
func (q *RetryQueue) push(dq *destQueue, u Update) {
	if len(dq.us) == 0 {
		q.active++
	} else if len(dq.us) == cap(dq.us) && dq.head > len(dq.us)/2 {
		n := copy(dq.us, dq.us[dq.head:])
		dq.us, dq.head = dq.us[:n], 0
	}
	dq.us = append(dq.us, u)
	if n := len(dq.us) - dq.head; n > dq.peak {
		dq.peak = n
	}
	q.size++
	if q.size > q.maxSize {
		q.maxSize = q.size
	}
}

// Defer stores an update for an absent peer.
func (q *RetryQueue) Defer(dest PeerID, u Update) {
	dq := q.queue(dest)
	dq.unindexed = true
	q.push(dq, u)
}

// DeferMerge stores an update, coalescing it into an already-queued
// update for the same document by summing deltas. This keeps the
// queued state bounded by the number of distinct destination documents
// — the paper's sum-of-out-links argument for sender-side storage —
// no matter how long the destination peer stays unreachable. Reports
// whether the update was absorbed into an existing entry.
//
//dpr:hotpath
func (q *RetryQueue) DeferMerge(dest PeerID, u Update) bool {
	dq := q.queue(dest)
	if dq.unindexed || 4*dq.used >= 3*len(dq.slots) {
		//dpr:ignore hotpath-transitive: reindex is the cold path — it runs once per len(slots)/4 appends at most, and allocates only when the queue outgrew its table
		dq.reindex()
	}
	s := dq.find(u.Doc)
	queued := uint32(len(dq.us) - dq.head)
	if s.pos == 0 {
		dq.used++
	} else if off := (s.pos - dq.base) & posMask; off < queued {
		if e := &dq.us[dq.head+int(off)]; e.Doc == u.Doc {
			e.Delta += u.Delta
			q.merges++
			return true
		}
	}
	s.doc, s.pos = u.Doc, occupied|(dq.base+queued)&posMask
	q.push(dq, u)
	return false
}

// find returns doc's slot, or the empty slot that ends its probe run.
// The table is never full: DeferMerge rebuilds it at three quarters.
func (dq *destQueue) find(doc graph.NodeID) *slot {
	mask := uint32(len(dq.slots) - 1)
	for i := uint32(doc) * 2654435761 >> dq.shift; ; i = (i + 1) & mask {
		if s := &dq.slots[i]; s.pos == 0 || s.doc == doc {
			return s
		}
	}
}

// reindex rebuilds the table from the queued entries, growing it
// until they load it to a half at most. A later entry for a document
// replaces an earlier one, so DeferMerge folds into the newest.
func (dq *destQueue) reindex() {
	queued := dq.us[dq.head:]
	n := max(len(dq.slots), minSlots)
	for n < 2*len(queued) {
		n *= 2
	}
	if n == len(dq.slots) {
		clear(dq.slots)
	} else {
		dq.slots = make([]slot, n)
		dq.shift = uint8(32 - bits.TrailingZeros(uint(n)))
	}
	dq.used, dq.unindexed = 0, false
	for i, e := range queued {
		s := dq.find(e.Doc)
		if s.pos == 0 {
			dq.used++
		}
		s.doc, s.pos = e.Doc, occupied|(dq.base+uint32(i))&posMask
	}
}

// Drain removes and returns all queued updates for dest, typically
// called when the peer is observed online again. Returns nil when
// nothing is queued. The caller owns the returned slice.
func (q *RetryQueue) Drain(dest PeerID) []Update {
	us := q.DrainN(dest, math.MaxInt)
	if us != nil {
		q.dests[dest+1].us = nil // hand the storage over with the updates
	}
	return us
}

// DrainN removes and returns at most n queued updates for dest, oldest
// first, leaving the remainder queued and coalescing. Senders use it
// to cap the updates in one frame. n <= 0 drains nothing. The returned slice aliases the queue's own
// storage: it is valid only until the next Defer or DeferMerge, so a
// caller that keeps the updates copies them first.
//
//dpr:hotpath
func (q *RetryQueue) DrainN(dest PeerID, n int) []Update {
	if n = min(n, q.Queued(dest)); n <= 0 {
		return nil
	}
	dq := &q.dests[dest+1]
	out := dq.us[dq.head : dq.head+n : dq.head+n]
	dq.head += n
	dq.base += uint32(n)
	q.size -= n
	if dq.head == len(dq.us) {
		// Empty: release storage the backlog never filled to an eighth, so
		// memory follows what is pending, not the largest burst ever seen.
		if cap(dq.us) > 8*dq.peak {
			dq.us = nil
		}
		if len(dq.slots) > 16*dq.peak && len(dq.slots) > minSlots {
			dq.slots, dq.used = nil, 0
		}
		dq.us, dq.head, dq.peak = dq.us[:0], 0, 0
		q.active--
	}
	return out
}

// DrainOnline drains every destination that is currently online in
// net, invoking deliver for each update in queue order. Destinations
// are visited in ascending peer order, so redelivery is deterministic
// run to run, which the engines' bit-identical-results guarantee
// depends on. It returns the number of messages delivered.
func (q *RetryQueue) DrainOnline(net *Network, deliver func(dest PeerID, u Update)) int {
	delivered := 0
	for i := range q.dests {
		dest := PeerID(i - 1)
		if len(q.dests[i].us) == 0 || !net.Online(dest) {
			continue
		}
		for _, u := range q.Drain(dest) {
			deliver(dest, u)
			delivered++
		}
	}
	return delivered
}

// Dests returns the destinations with queued updates in ascending
// order, so callers can re-route queued state deterministically after
// an ownership change.
func (q *RetryQueue) Dests() []PeerID {
	dests := make([]PeerID, 0, q.active)
	for i := range q.dests {
		if len(q.dests[i].us) > 0 {
			dests = append(dests, PeerID(i-1))
		}
	}
	return dests
}

// Len returns the number of updates currently queued.
func (q *RetryQueue) Len() int { return q.size }

// Mass sums the queued rank deltas across every destination: the
// in-flight mass parked at the sender. It is one term of the engine
// seam's rank-mass conservation audit (internal/engine), so updates
// lost or duplicated by the store-and-retry path show up as a balance
// break rather than a silently wrong fixed point.
func (q *RetryQueue) Mass() float64 {
	total := 0.0
	for i := range q.dests {
		dq := &q.dests[i]
		for _, u := range dq.us[dq.head:] {
			total += u.Delta
		}
	}
	return total
}

// Queued returns the number of updates currently queued for dest.
func (q *RetryQueue) Queued(dest PeerID) int {
	if int(dest)+1 >= len(q.dests) {
		return 0
	}
	return len(q.dests[dest+1].us) - q.dests[dest+1].head
}

// MaxLen returns the high-water mark of queued updates, the "amount of
// state saved" the paper bounds by the sum of out-links per peer.
func (q *RetryQueue) MaxLen() int { return q.maxSize }

// Destinations returns the number of peers with queued updates.
func (q *RetryQueue) Destinations() int { return q.active }

// Merges returns how many updates DeferMerge absorbed into existing
// entries instead of growing the queue.
func (q *RetryQueue) Merges() int { return q.merges }
