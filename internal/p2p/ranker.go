package p2p

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"dpr/internal/graph"
	"dpr/internal/telemetry"
)

// Ranker is the per-peer chaotic-iteration state machine of the
// paper's Figure 1 for the documents one peer holds: accumulate
// in-link mass, recompute, and push d·Δ/outdeg to each out-link. It is
// the one asynchronous rank-push loop in the repository — the TCP peer
// (internal/wire), core.TimedEngine and internal/engine's round driver
// differ only in who delivers a batch and when, never in how a peer
// folds one.
//
// The push test is on the un-pushed residual |rank − last| (D-Iteration's
// remaining fluid), not on the distance between successive recomputes,
// and against a threshold that only falls, from StartThreshold to the
// floor ε: the driver takes it one NextThreshold step down, through
// Relax, each time its network runs quiet (DESIGN.md §4).
//
// All methods are safe for concurrent use, except that Fold's and
// Relax's results alias scratch the next Fold or Relax overwrites.
//
// Under dynamic membership the document set is mutable: Adopt merges
// in a departed peer's rows, Shed extracts rows for a joining peer, and
// SetOwner repoints documents at the owners pushed to it: routing
// changes through these three and nothing else. Routing and adjacency
// live in the ranker's shard, sized by the rows it holds and their
// out-links, never by the graph (shard.go).
type Ranker struct {
	id       PeerID
	cur      graph.LinkCursor
	teleport []float64 // constant term by document; nil means 1-damping
	damping  float64
	epsilon  float64
	absolute bool

	// placement is the driver's owner of every document, shared and
	// never written while the ranker lives.
	placement []PeerID

	// mass mirrors sum(rank) into the telemetry registry: Set on
	// (re)initialisation, Add on every fold/adopt/shed. Per-peer
	// gauges merge into the cluster's total rank mass.
	mass *telemetry.Gauge

	mu sync.Mutex
	shard
	// A row is (docs, acc, last); rankLocked recomputes its rank from acc.
	docs []graph.NodeID // row → document, ascending
	acc  []float64
	last []float64
	thr  float64 // push threshold in force, never below epsilon

	// Fold scratch, reused from fold to fold. stamp[row] == gen marks a
	// row dirty in the current fold.
	stamp []uint32
	gen   uint32
	dirty []int32
	out   [][]Update
	fwd   []Update

	recomputed int64
}

// The threshold schedule: the first stage pushes only residuals past
// pushStart, each later one multiplies the threshold by pushRelax, and ε
// is the floor.
const pushStart, pushRelax = 0.5, 0.5

// StartThreshold is the first stage, NextThreshold the one after thr.
func StartThreshold(epsilon float64) float64     { return max(epsilon, pushStart) }
func NextThreshold(thr, epsilon float64) float64 { return max(epsilon, thr*pushRelax) }

// cover grows the outbox to hold a slot for dest. Outboxes collect
// updates per destination, indexed by PeerID+1: slot 0 takes updates
// for documents no peer owns (NoPeer).
func (r *Ranker) cover(dest PeerID) {
	for int(dest)+1 >= len(r.out) {
		r.out = append(r.out, nil)
	}
}

// reuse empties a recycled buffer for refilling — unless its last fill
// used under an eighth of the storage, which is then dropped, so each
// stays sized by current traffic and not by its largest burst.
func reuse[T any](s []T) []T {
	if cap(s) > 1024 && cap(s) > 8*len(s) {
		return nil
	}
	return s[:0]
}

// NewRanker builds peer id's ranker over the documents docs, reading
// adjacency through cur (which the ranker then owns: cursors are not
// safe for concurrent use) and routing by docPeer, the owner of every
// document. docPeer is kept, not copied, and must not be written while
// the ranker lives: it stays the owner of every document the ranker is
// not told otherwise about (SetOwner, Shed). teleport is the
// per-document constant term; nil means the uniform 1-damping.
// threshold is the stage to begin at (at least epsilon); absolute
// selects the absolute, not relative, residual test. The ranker starts
// from docs' rows at zero, adopted in document order (Adopt).
func NewRanker(id PeerID, cur graph.LinkCursor, docs []graph.NodeID, docPeer []PeerID,
	teleport []float64, damping, epsilon, threshold float64, absolute bool, mass *telemetry.Gauge) *Ranker {
	r := &Ranker{
		id:        id,
		cur:       cur,
		teleport:  teleport,
		damping:   damping,
		epsilon:   epsilon,
		thr:       max(epsilon, threshold),
		absolute:  absolute,
		mass:      mass,
		placement: docPeer,
		shard:     shard{off: []int32{0}},
	}
	zero := make([]float64, len(docs))
	r.mass.Set(0)
	r.Adopt(docs, zero, zero)
	return r
}

// rankLocked is row i's rank: the paper's (1 − d) + acc, or its
// document's teleport term + acc (only then is the document read).
func (r *Ranker) rankLocked(i int32) float64 {
	if r.teleport == nil {
		return 1 - r.damping + r.acc[i]
	}
	return r.teleport[r.docs[i]] + r.acc[i]
}

// UniformRanksInto is RanksInto for rows held outside a ranker: it writes
// at each document's index in dst the rank a ranker without a teleport
// vector reports for a row that folded acc.
func UniformRanksInto(dst []float64, damping float64, docs []graph.NodeID, acc []float64) {
	for i, d := range docs {
		dst[d] = 1 - damping + acc[i]
	}
}

// InitialOut builds the initial-push batches in an outbox of their
// own: a caller may ship them while another goroutine is already
// folding.
func (r *Ranker) InitialOut() [][]Update {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]Update, len(r.out))
	for i := range r.docs {
		// A fold that ran before Start has pushed this row already; what
		// rounding left in its residual waits for the threshold like any other.
		if r.last[i] == 0 {
			r.collectLocked(int32(i), r.rankLocked(int32(i)), out)
		}
	}
	r.recomputed += int64(len(r.docs))
	return out
}

// Fold applies batches of updates as one — each row they touch is
// recomputed, and pushed, once — and returns the consequent batches,
// the updates for documents this peer does not hold, and the delta
// mass it did fold. Misrouted updates are NOT dropped — under dynamic
// membership they raced an ownership migration, and the caller must
// forward them to the current owner so no rank mass is ever lost.
// Folding several batches gives bit for bit what folding their
// concatenation does, without the copy.
//
// out (indexed by PeerID+1) and fwd are the ranker's scratch, valid
// until the next Fold or Relax. A batch may be the previous fold's
// self-directed slot of out: every batch is read to the end before out
// is refilled.
//
//dpr:hotpath
func (r *Ranker) Fold(batches ...[]Update) (out [][]Update, fwd []Update, folded float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	if r.gen == 0 { // uint32 wrap: forget every stamp the slow way
		clear(r.stamp)
		r.gen = 1
	}
	n := 0
	for _, batch := range batches {
		n += len(batch)
	}
	// dirty grows once, to the most rows the batches can touch.
	dirty, fwd := slices.Grow(reuse(r.dirty), min(n, len(r.docs))), reuse(r.fwd)
	for _, batch := range batches {
		for _, u := range batch {
			i := r.index.find(r.docs, u.Doc)
			if i < 0 {
				fwd = append(fwd, u)
				continue
			}
			r.acc[i] += u.Delta
			folded += u.Delta
			if r.stamp[i] != r.gen {
				r.stamp[i] = r.gen
				dirty = append(dirty, i)
			}
		}
	}
	for slot := range r.out {
		r.out[slot] = reuse(r.out[slot])
	}
	for _, i := range dirty {
		if rank := r.rankLocked(i); r.residualLocked(i, rank) > r.thr {
			r.collectLocked(i, rank, r.out)
		}
	}
	// A row's base is constant, so the rank mass moves by what folded.
	if folded != 0 {
		r.mass.Add(folded)
	}
	r.recomputed += int64(len(dirty))
	r.dirty, r.fwd = dirty, fwd
	return r.out, fwd, folded
}

// residualLocked is what the threshold is held against: row i's
// un-pushed rank change, over its rank unless the test is absolute.
//
//dpr:hotpath
func (r *Ranker) residualLocked(i int32, rank float64) float64 {
	diff := math.Abs(rank - r.last[i])
	if denom := math.Abs(rank); !r.absolute && denom != 0 {
		diff /= denom
	}
	return diff
}

// Relax lowers the push threshold to thr — never below ε, never raising
// it — and sweeps every row, returning the pushes of those whose
// residual is past it. At +Inf it is a plain sweep, for rows from a
// laxer stage. The outbox is Fold's scratch, valid until the next Fold
// or Relax.
func (r *Ranker) Relax(thr float64) [][]Update {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.thr = max(r.epsilon, min(r.thr, thr))
	for slot := range r.out {
		r.out[slot] = reuse(r.out[slot])
	}
	for i := range r.docs {
		if rank := r.rankLocked(int32(i)); r.residualLocked(int32(i), rank) > r.thr {
			r.collectLocked(int32(i), rank, r.out)
		}
	}
	return r.out
}

// collectLocked batches row i's pending delta, rank − last, per
// destination, in link order. Each link's share is rounded to a
// bfloat16 — two bytes on a socket — when the remainder that leaves in
// the row keeps its residual within the threshold, and to a float32 —
// four — when not; last advances by exactly what that emits, so the
// rounding stays in the residual for a later push and no mass is lost
// to it (DESIGN.md §4). rank is the row's, from rankLocked. Caller
// holds mu; out covers every owner the shard names.
//
//dpr:hotpath
func (r *Ranker) collectLocked(i int32, rank float64, out [][]Update) {
	links := r.links[r.off[i]:r.off[i+1]]
	if len(links) == 0 {
		r.last[i] = rank
		return
	}
	n := float64(len(links))
	exact := r.damping * (rank - r.last[i]) / n
	share := float64(float32(exact))
	// What the rounding leaves in the row, |exact − b|·n/d, against
	// residualLocked's test solved for rank − last.
	slack := r.thr * r.damping
	if !r.absolute && rank != 0 {
		slack *= math.Abs(rank)
	}
	if b := bfloat16(exact); math.Abs(exact-b)*n <= slack {
		share = b
	}
	r.last[i] += share * n / r.damping
	if share == 0 {
		return
	}
	for _, to := range links {
		out[to.box] = append(out[to.box], Update{Doc: to.doc, Delta: share})
	}
}

// bfloat16 rounds x to a bfloat16 (IsBfloat16) — 8 significant bits —
// to nearest, ties to even, by way of the nearest float32.
func bfloat16(x float64) float64 {
	b := math.Float32bits(float32(x))
	b += 0x7fff + b>>16&1
	return float64(math.Float32frombits(b &^ bfloat16Low))
}

// bfloat16Low masks the bits a bfloat16 leaves zero.
const bfloat16Low = 0xffff

// IsBfloat16 reports whether f is a bfloat16: a float32 whose low 16
// bits are zero, the share width the wire codec sends in two bytes.
func IsBfloat16(f float32) bool {
	return math.Float32bits(f)&bfloat16Low == 0
}

// ForwardOut sorts updates a fold refused by their documents' current
// owners, in an outbox of its own; documents held by now (adopted
// between fold and forward) land in this peer's own slot. Updates with
// no resolvable owner — nobody's, or routed to this peer without a row
// here — are counted in dropped.
func (r *Ranker) ForwardOut(fwd []Update) (out [][]Update, dropped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out = make([][]Update, len(r.out))
	for _, u := range fwd {
		owner := r.ownerLocked(u.Doc)
		if owner == NoPeer || owner == r.id && r.index.find(r.docs, u.Doc) < 0 {
			dropped++
			continue
		}
		for int(owner)+1 >= len(out) {
			out = append(out, nil)
		}
		out[owner+1] = append(out[owner+1], u)
	}
	return out, dropped
}

// Owners appends to dst the current owner of each update's document,
// this peer for a held row, under one lock.
func (r *Ranker) Owners(us []Update, dst []PeerID) []PeerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range us {
		dst = append(dst, r.ownerLocked(u.Doc))
	}
	return dst
}

// SetOwner points docs at owner. New outbound updates for those
// documents route to the new owner from the next fold on. Documents
// this ranker holds keep their rows: rows only ever leave through Shed.
func (r *Ranker) SetOwner(docs []graph.NodeID, owner PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var named []graph.NodeID
	for _, d := range docs {
		if uint32(d) < uint32(len(r.placement)) && r.index.find(r.docs, d) < 0 {
			named = append(named, d)
		}
	}
	named = r.moveLocked(named, owner)
	r.cover(owner)
	idx := newDocIndex(named)
	for i, l := range r.links {
		if idx.find(named, l.doc) >= 0 {
			r.links[i].box = int32(owner) + 1
		}
	}
}

// Adopt merges in a migrated document range: the rows arrive mid-flight
// from a handoff snapshot and continue exactly where the previous
// owner's last fold left them (acc committed, last marking what has
// already been pushed downstream). Adopted docs are immediately routed
// to this peer. A document already held (a replayed handoff) keeps its
// row, and of a document listed twice the first row is taken.
func (r *Ranker) Adopt(docs []graph.NodeID, acc, last []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := make([]int, 0, len(docs)) // where in docs the rows to merge are, by document
	for i, d := range docs {
		if uint32(d) < uint32(len(r.placement)) && r.index.find(r.docs, d) < 0 {
			in = append(in, i)
		}
	}
	if !slices.IsSorted(docs) {
		slices.SortStableFunc(in, func(i, j int) int { return cmp.Compare(docs[i], docs[j]) })
	}
	in = slices.CompactFunc(in, func(i, j int) bool { return docs[i] == docs[j] })
	// Merge from the back, into the rows grown in place.
	old, n, adopted := len(r.docs)-1, len(r.docs)+len(in), 0.0
	r.docs, r.acc, r.last = slices.Grow(r.docs, len(in))[:n], slices.Grow(r.acc, len(in))[:n], slices.Grow(r.last, len(in))[:n]
	r.stamp = append(r.stamp, make([]uint32, len(in))...)
	for j := n - 1; len(in) > 0; j-- {
		if i := in[len(in)-1]; old < 0 || r.docs[old] < docs[i] {
			r.docs[j], r.acc[j], r.last[j] = docs[i], acc[i], last[i]
			adopted += r.rankLocked(int32(j))
			in = in[:len(in)-1]
		} else {
			r.docs[j], r.acc[j], r.last[j] = r.docs[old], r.acc[old], r.last[old]
			old--
		}
	}
	r.compileLocked(0)
	r.mass.Add(adopted)
}

// Shed extracts the rows for docs (handing them to a joining peer) and
// atomically repoints them at newOwner, so an update for a shed
// document arriving in the very next fold is forwarded rather than
// folded into state that already left.
func (r *Ranker) Shed(docs []graph.NodeID, newOwner PeerID) (acc, last []float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	acc = make([]float64, len(docs))
	last = make([]float64, len(docs))
	gone := make([]bool, len(r.docs))
	extracted := 0.0
	for i, d := range docs {
		j := r.index.find(r.docs, d)
		if j < 0 {
			return nil, nil, fmt.Errorf("p2p: peer %d cannot shed doc %d it does not own", r.id, d)
		}
		acc[i], last[i] = r.acc[j], r.last[j]
		extracted += r.rankLocked(j)
		gone[j] = true
	}
	// Close the gaps, out-links and all, renumbering rows as they move
	// down.
	keep, links := 0, r.links[:0]
	for j, d := range r.docs {
		if gone[j] {
			continue
		}
		links = append(links, r.links[r.off[j]:r.off[j+1]]...)
		r.docs[keep], r.acc[keep], r.last[keep] = d, r.acc[j], r.last[j]
		r.off[keep+1] = int32(len(links))
		keep++
	}
	r.docs, r.acc, r.last = r.docs[:keep], r.acc[:keep], r.last[:keep]
	r.off, r.links, r.stamp = r.off[:keep+1], links, r.stamp[:keep]
	clear(r.stamp)
	r.moveLocked(docs, newOwner)
	r.cover(newOwner)
	r.compileLocked(keep)
	r.mass.Add(-extracted)
	return acc, last, nil
}

// RanksInto writes each held document's rank at its index in dst, which
// spans the whole graph: how an in-process driver assembles one vector
// from every peer.
func (r *Ranker) RanksInto(dst []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, d := range r.docs {
		dst[d] = r.rankLocked(int32(i))
	}
}

// Unpushed returns the held rows' total un-pushed rank change
// Σ|rank − last|: D-Iteration's remaining fluid at this peer. With u the
// sum of it over all peers and f the delta mass in flight between them,
// the rank vector is within (f + d·u)/(1−d) of the fixed point in the
// 1-norm.
func (r *Ranker) Unpushed() (u float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.docs {
		u += math.Abs(r.rankLocked(int32(i)) - r.last[i])
	}
	return u
}

// MassBalance returns the two sides of this peer's rank-mass ledger: the
// in-link mass its rows have folded, and the mass they have shipped —
// d·last per document with out-links, since every push advances last by
// exactly what it emits. Summed over all peers the two differ by the
// mass still in flight.
func (r *Ranker) MassBalance() (folded, shipped float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.docs {
		folded += r.acc[i]
		if r.off[i+1] > r.off[i] {
			shipped += r.damping * r.last[i]
		}
	}
	return folded, shipped
}

// Rows copies out the durable state: the held documents and, row by
// row, their accumulated in-link mass and last-pushed rank. A row's rank
// is not state: its document and acc give it (Ranks).
func (r *Ranker) Rows() (docs []graph.NodeID, acc, last []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]graph.NodeID(nil), r.docs...), append([]float64(nil), r.acc...), append([]float64(nil), r.last...)
}

// EncodeRows appends a row list to dst: a uvarint count, then per row
// the signed varint of its document minus the previous row's (0 before
// the first) and each column's value as a little-endian float64. Every
// snapshot format (DESIGN.md, "Fault tolerance") writes its documents
// and values through here and nowhere else. Rows keep their order, in
// which documents may go backwards or repeat, and every int32 document
// and float64 bit pattern survives.
func EncodeRows(dst []byte, docs []graph.NodeID, cols ...[]float64) []byte {
	dst = binary.AppendUvarint(slices.Grow(dst, binary.MaxVarintLen64+len(docs)*(5+8*len(cols))), uint64(len(docs)))
	prev := int64(0)
	for i, d := range docs {
		dst = binary.AppendVarint(dst, int64(d)-prev)
		prev = int64(d)
		for _, c := range cols {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c[i]))
		}
	}
	return dst
}

// DecodeRows parses a row list of ncols columns off the front of b and
// returns it with the bytes after it. The count sizes nothing before it
// is held against len(b): a row is at least 1 + 8·ncols bytes.
func DecodeRows(b []byte, ncols int) (docs []graph.NodeID, cols [][]float64, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k)/uint64(1+8*ncols) {
		return nil, nil, nil, fmt.Errorf("p2p: row count unreadable or past its %d bytes", len(b))
	}
	b, docs, cols = b[k:], make([]graph.NodeID, n), make([][]float64, ncols)
	for c := range cols {
		cols[c] = make([]float64, n)
	}
	prev := int64(0)
	for i := range docs {
		gap, k := binary.Varint(b)
		if k <= 0 || gap < math.MinInt32-prev || gap > math.MaxInt32-prev || len(b)-k < 8*ncols {
			return nil, nil, nil, fmt.Errorf("p2p: row %d: bad varint, document or length", i)
		}
		prev += gap
		docs[i], b = graph.NodeID(prev), b[k:]
		for _, c := range cols {
			c[i], b = math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:]
		}
	}
	return docs, cols, b, nil
}

// SplitUpdates returns an update list as one-column rows for EncodeRows.
func SplitUpdates(us []Update) (docs []graph.NodeID, delta []float64) {
	docs, delta = make([]graph.NodeID, len(us)), make([]float64, len(us))
	for i, u := range us {
		docs[i], delta[i] = u.Doc, u.Delta
	}
	return docs, delta
}

// JoinUpdates is SplitUpdates' inverse, over what DecodeRows returns.
func JoinUpdates(docs []graph.NodeID, delta []float64) []Update {
	us := make([]Update, len(docs))
	for i, d := range docs {
		us[i] = Update{Doc: d, Delta: delta[i]}
	}
	return us
}

// Recomputed returns how many document recomputes (initial pushes
// included) the ranker has performed: the work unit the race harness
// normalizes into equivalent passes.
func (r *Ranker) Recomputed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recomputed
}
