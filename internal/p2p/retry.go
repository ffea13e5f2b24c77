package p2p

import (
	"cmp"
	"slices"

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
// simulation keeps one logical queue per destination peer; its state
// size (the paper notes worst case scales with the sum of out-links in
// a peer) is Len.
type RetryQueue struct {
	dests  []destQueue // indexed by destination+1, so NoPeer parks in slot 0
	active int         // destinations with queued updates
	size   int
	merges int
	sorter // compact's scratch, shared by every destination
}

// destQueue is one destination's queue: us[head:head+sorted] is what
// is left of the run the last compaction made, one entry a document,
// ordered by document from from round; behind it, what arrived since,
// unmerged (DESIGN.md §13).
type destQueue struct {
	us     []Update
	head   int
	sorted int
	left   int    // the run's length when the last compaction made it
	from   uint32 // one past the last document DrainN took
}

// compactFloor is the fewest queued entries at which DeferMerge merges
// on its own. A variable only so that the model test can reach it.
var compactFloor = 1 << 14

// NewRetryQueue returns an empty queue.
func NewRetryQueue() *RetryQueue { return &RetryQueue{} }

// queue returns dest's queue, growing the table to reach it.
func (q *RetryQueue) queue(dest PeerID) *destQueue {
	for int(dest)+1 >= len(q.dests) {
		q.dests = append(q.dests, destQueue{})
	}
	return &q.dests[dest+1]
}

// push appends us to dq, reclaiming the drained prefix in place when
// that avoids growing the storage.
func (q *RetryQueue) push(dq *destQueue, us []Update) {
	if len(us) == 0 {
		return
	}
	if len(dq.us) == 0 {
		q.active++
	} else if len(dq.us)+len(us) > cap(dq.us) && dq.head > len(dq.us)/2 {
		n := copy(dq.us, dq.us[dq.head:])
		dq.us, dq.head = dq.us[:n], 0
	}
	if len(us) == 1 {
		dq.us = append(dq.us, us[0]) // not worth a memmove call
	} else {
		dq.us = append(dq.us, us...)
	}
	q.size += len(us)
}

// Defer stores an update for an absent peer. It never merges: Drain
// hands it back as it went in.
func (q *RetryQueue) Defer(dest PeerID, u Update) { q.push(q.queue(dest), []Update{u}) }

// DeferMerge stores updates for dest, to be merged with queued updates
// for the same document by summing deltas: by the next DrainN, or here
// once dest's queue reaches twice what the last merge left, and at
// least compactFloor. Queued state thus stays within max(compactFloor,
// 2 × the destination's distinct documents) — the paper's
// sum-of-out-links argument for sender-side storage, doubled — however
// long the destination peer stays unreachable.
//
//dpr:hotpath
func (q *RetryQueue) DeferMerge(dest PeerID, us ...Update) {
	dq := q.queue(dest)
	q.push(dq, us)
	if len(dq.us)-dq.head >= max(compactFloor, 2*dq.left) {
		q.compact(dq)
	}
}

// compact merges what arrived since the last compaction into what is
// left of the run it made: a stable radix sort of the arrivals by
// document, then one pass that takes them from dq.from round, merges
// them into the run and sums equal documents in queue order, the run's
// older entry first. So a merged delta is its updates summed left to
// right in arrival order, bit for bit what summing on arrival gave.
//
//dpr:hotpath
func (q *RetryQueue) compact(dq *destQueue) {
	run, in := dq.us[dq.head:dq.head+dq.sorted], dq.us[dq.head+dq.sorted:]
	if len(in) == 0 {
		return
	}
	n := len(run) + len(in)
	q.tmp = slices.Grow(q.tmp[:0], n)[:n]
	q.sort(in)
	out := q.tmp[:0]
	if len(run) == 0 { // nothing older waits: start over from document 0, in place
		out, dq.from = in[:0], 0
	}
	from := dq.from
	split, _ := slices.BinarySearchFunc(in, from, byDoc) // in[split:] is at or past from
	i := 0
	for pass, part := 0, in[split:]; pass < 2; pass, part = pass+1, in[:split] {
		for _, u := range part {
			k := uint32(u.Doc) - from
			for ; i < len(run) && uint32(run[i].Doc)-from <= k; i++ {
				out = append(out, run[i])
			}
			if m := len(out) - 1; m >= 0 && out[m].Doc == u.Doc {
				out[m].Delta += u.Delta
			} else {
				out = append(out, u)
			}
		}
	}
	out = append(out, run[i:]...)
	if len(run) > 0 { // the merge is in the scratch: swap it with the storage
		dq.us, dq.head, q.tmp = out, 0, dq.us[:cap(dq.us)]
	} else {
		dq.us = dq.us[:dq.head+len(out)]
	}
	q.size -= n - len(out)
	q.merges += n - len(out)
	dq.sorted, dq.left = len(out), len(out)
}

// byDoc orders an update against a document id as the wire codec does.
func byDoc(u Update, doc uint32) int { return cmp.Compare(uint32(u.Doc), doc) }

// Drain removes and returns every update queued for dest as it lies in
// the queue, unmerged, so a document may repeat and the pass engine,
// which only Defers, gets back exactly what it queued. Returns nil when
// nothing is queued. The caller owns the returned slice.
func (q *RetryQueue) Drain(dest PeerID) []Update {
	if q.Queued(dest) == 0 {
		return nil
	}
	dq := &q.dests[dest+1]
	out := dq.us[dq.head:]
	*dq = destQueue{} // hand the storage over with the updates
	q.size -= len(out)
	q.active--
	return out
}

// DrainN merges what is queued for dest and removes and returns at
// most n updates, one a document and ordered by document, as a frame
// needs them. Each call resumes after the last document the one before
// took and wraps past the highest, so a queued update leaves before the
// calls have gone once round its queue, however much keeps arriving.
// n <= 0 drains nothing. The returned slice aliases the queue's
// storage: it is valid only until the next Defer or DeferMerge.
//
//dpr:hotpath
func (q *RetryQueue) DrainN(dest PeerID, n int) []Update {
	if n = min(n, q.Queued(dest)); n <= 0 {
		return nil
	}
	dq := &q.dests[dest+1]
	q.compact(dq)
	n = min(n, dq.sorted)
	out := dq.us[dq.head : dq.head+n : dq.head+n]
	dq.head, dq.sorted, dq.from = dq.head+n, dq.sorted-n, uint32(out[n-1].Doc)+1
	if first := uint32(out[0].Doc); uint32(out[n-1].Doc) < first {
		// Wrapped past the highest id: the lower ids go to the front.
		w := 1
		for uint32(out[w].Doc) >= first {
			w++
		}
		slices.Reverse(out[:w])
		slices.Reverse(out[w:])
		slices.Reverse(out)
	}
	q.size -= n
	if dq.head == len(dq.us) {
		// Empty: release storage the last merge never filled to an eighth,
		// so memory follows what is pending, not the largest burst ever seen.
		if cap(dq.us) > 8*dq.left {
			dq.us = nil
		}
		dq.us, dq.head, dq.left = dq.us[:0], 0, 0
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

// Merges returns how many queued updates were summed into another
// entry for the same document.
func (q *RetryQueue) Merges() int { return q.merges }

// SortUpdates orders us stably by document, as the wire codec does.
func SortUpdates(us []Update) { (&sorter{tmp: make([]Update, len(us))}).sort(us) }

// sorter is sort's scratch: the second buffer, as long as the longest
// input, and the digit counts.
type sorter struct {
	tmp   []Update
	count [4][1 << 11]uint32
}

// sort orders us stably by document, as the wire codec does, in linear
// time: an LSD radix sort over s.tmp that skips a digit every key
// shares. Digits are bytes below 8,192 updates, where a frame pays for
// the counts it clears, and 11 bits from there: two passes for ids
// under 2²², and evenly spread ids do not land every bucket on the
// same cache set (DESIGN.md §13).
//
//dpr:hotpath
func (s *sorter) sort(us []Update) {
	w := uint32(8)
	if len(us) >= 1<<13 {
		w = 11 // the fourth digit is then always 0
	}
	mask := uint32(1)<<w - 1
	c := &s.count
	for d := range c {
		clear(c[d][:mask+1])
	}
	for _, u := range us {
		k := uint32(u.Doc)
		c[0][k&mask&2047]++ // & 2047: no bounds check
		c[1][k>>w&mask&2047]++
		c[2][k>>(2*w)&mask&2047]++
		c[3][k>>(3*w)&mask&2047]++
	}
	src, dst := us, s.tmp[:len(us)]
	for d := 0; d < 4 && len(us) > 0; d++ {
		cd, shift, at := &c[d], w*uint32(d), uint32(0)
		if cd[uint32(us[0].Doc)>>shift&mask&2047] == uint32(len(us)) {
			continue
		}
		for k, n := range cd[:mask+1] {
			cd[k], at = at, at+n
		}
		for _, u := range src {
			k := uint32(u.Doc) >> shift & mask & 2047
			dst[cd[k]] = u
			cd[k]++
		}
		src, dst = dst, src
	}
	copy(us, src) // onto itself after an even number of passes
}
