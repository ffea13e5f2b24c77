package wire

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// Peer crash/restart follows internal/core's checkpoint design: the
// durable state is the per-document ranker pair (accumulator, last-pushed
// rank; the rank is recomputed) as a p2p row list behind a magic/version
// header, extended with the wire layer's recovery state. Restoring a
// snapshot into a fresh Peer resumes the computation exactly where the
// crash left it: senders redeliver everything unacknowledged, receivers
// suppress what was already folded, and the termination counters carry
// over so the cluster-wide probe stays exact across the crash.
//
// What the recovery state holds, and why each part must survive:
//
//   - The duplicate-suppression table and the outbound queues
//     (unacknowledged frames verbatim plus coalesced pending updates),
//     both keyed by delivery stream (source, original destination)
//     rather than by single peer. That is what lets a departed peer's
//     state migrate: its ring successor adopts the dedup entries and
//     the unacknowledged frames under their original stream identity,
//     so redirected retransmissions are recognized wherever they land.
//     The snapshot is also the hand-over itself: Peer.Adopt takes one.
//   - The ownership-epoch vector (one fencing epoch per ring slot), so
//     a restored peer re-frames its unacknowledged batches under epochs
//     at least as fresh as the ones it crashed with — a receiver that
//     moved on can nack the stale retransmissions instead of silently
//     double-folding them.
//   - The epoch-rejected sequence list: seqs this peer nacked at the
//     epoch fence whose updates therefore never folded. lastSeq can
//     legitimately pass such a seq (a later refreshed-epoch frame folds
//     first), so whoever inherits the dedup table — the ring successor,
//     or the peer itself after a restart — must also inherit this
//     exemption list, or a retransmission of the rejected frame would
//     be swallowed as a duplicate and its updates lost.

const (
	peerSnapMagic = "DPRW"
	// There is one format. A snapshot lives only inside the cluster that
	// wrote it, from Kill to Restart or Leave, so no reader ever meets
	// an older writer's output; the version is a corruption check and
	// the hook for a future format, and floor and ceiling coincide.
	peerSnapVersion    = 10
	peerSnapMinVersion = 10
)

// PeerSnapshot is a crashed peer's durable state.
type PeerSnapshot struct {
	ID   p2p.PeerID
	Docs []graph.NodeID

	// Ranker state, indexed like Docs.
	Acc, Last []float64
	// Rank is unused. bench/layers.go, edited only as benchmark upkeep,
	// still sets it; the next benchmark change deletes it with that
	// write (ROADMAP, "Finish the subtraction").
	Rank []float64

	// LastSeq is the highest folded sequence number per delivery
	// stream (source peer, original destination).
	LastSeq []SeqEntry

	// Rejected lists epoch-rejected sequence numbers: never folded,
	// exempt from duplicate suppression even when below the stream's
	// LastSeq entry.
	Rejected []SeqEntry

	// Outbound is the store-and-retry state per delivery stream.
	Outbound []OutboundState

	// Epochs is the ownership-epoch vector, indexed by ring slot: the
	// highest fencing epoch this peer had observed per key range.
	Epochs []uint64

	// PeerStats is the peer's counters, carried across the restart.
	PeerStats
}

// SeqEntry is one duplicate-suppression record: the highest folded
// sequence number of the (Src, Dest) delivery stream. Dest is the
// peer the stream's frames were originally framed for, which after a
// migration can differ from the peer holding the entry.
type SeqEntry struct {
	Src, Dest p2p.PeerID
	Seq       uint64
}

// OutboundState is one delivery stream's sender state. Src is the
// peer that framed the stream's batches — normally the snapshotted
// peer itself, but after adopting a departed peer's outbound queues a
// snapshot can carry streams framed by earlier owners.
type OutboundState struct {
	Src     p2p.PeerID
	Dest    p2p.PeerID
	NextSeq uint64
	Unacked []UnackedFrame // the frame in flight, if any: at most one (DecodeSnapshot refuses more)
	Pending []p2p.Update   // coalesced, not yet framed (Src == snapshot owner only)
}

// UnackedFrame is a framed batch that must be redelivered verbatim
// (same sequence number) so the receiver can suppress it if the
// original copy was folded before the crash.
type UnackedFrame struct {
	Seq     uint64
	Updates []p2p.Update
}

// snapshot assembles the peer's durable state. Callers must have
// stopped the peer's goroutines first (stop), so every field is
// quiescent.
func (p *Peer) snapshot() *PeerSnapshot {
	docs, acc, last := p.rk.Rows()
	s := &PeerSnapshot{ID: p.cfg.ID, Docs: docs, Acc: acc, Last: last, PeerStats: p.m.stats()}
	for _, vs := range p.view() {
		s.Epochs = append(s.Epochs, vs.Epoch)
	}
	for st, seq := range p.lastSeq {
		s.LastSeq = append(s.LastSeq, SeqEntry{Src: st.src, Dest: st.dest, Seq: seq})
	}
	for st, seqs := range p.rejected {
		for seq := range seqs {
			s.Rejected = append(s.Rejected, SeqEntry{Src: st.src, Dest: st.dest, Seq: seq})
		}
	}
	// Map order is random; a checkpoint of the same state is the same bytes.
	bySeqEntry := func(a, b SeqEntry) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dest, b.Dest), cmp.Compare(a.Seq, b.Seq))
	}
	slices.SortFunc(s.LastSeq, bySeqEntry)
	slices.SortFunc(s.Rejected, bySeqEntry)
	strms := make([]stream, 0, len(p.senders))
	for st := range p.senders {
		strms = append(strms, st)
	}
	slices.SortFunc(strms, func(a, b stream) int {
		if a.src != b.src {
			return int(a.src - b.src)
		}
		return int(a.dest - b.dest)
	})
	for _, st := range strms {
		snd := p.senders[st]
		ob := OutboundState{Src: st.src, Dest: st.dest, NextSeq: snd.nextSeq}
		if fr := snd.inflight; fr != nil {
			// The restore re-frames the updates under the same stream
			// identity and sequence number.
			ob.Unacked = []UnackedFrame{{Seq: fr.seq, Updates: fr.us}}
		}
		if st.src == p.cfg.ID {
			ob.Pending = p.rq.Drain(st.dest)
		}
		if len(ob.Unacked) > 0 || len(ob.Pending) > 0 || ob.NextSeq > 1 {
			s.Outbound = append(s.Outbound, ob)
		}
	}
	// Queued destinations that never got a sender (possible when an
	// ownership reroute parked updates during shutdown).
	for _, dest := range p.rq.Dests() {
		s.Outbound = append(s.Outbound, OutboundState{
			Src: p.cfg.ID, Dest: dest, NextSeq: 1, Pending: p.rq.Drain(dest),
		})
	}
	// Remote frames left in the inbox are still held by their senders,
	// but self-directed batches (the initial push's own share, rerouted
	// updates for documents held here) have nobody to retransmit them:
	// they are saved as updates pending for this peer itself.
	var self []p2p.Update
	for len(p.inbox) > 0 {
		if it := <-p.inbox; it.cw == nil {
			self = append(self, it.us...)
		}
	}
	if len(self) > 0 {
		s.Outbound = append(s.Outbound, OutboundState{Src: p.cfg.ID, Dest: p.cfg.ID, NextSeq: 1, Pending: self})
	}
	return s
}

// RestorePeer rejoins a crashed peer: a fresh peer (new listener, new
// address) that adopts its own snapshot. The recovery tables and the
// senders go in through the same mergeTables and primeSender a
// successor's Adopt uses; what differs is what is the peer's own — the
// fresh ranker holds no rows but its snapshot's, its counters are
// restored, and its pending updates go back into its retry queue
// instead of being handled as a received batch. Call SetPeers (on every
// peer, since the address changed) and then Start; the restored peer
// skips the initial push.
func RestorePeer(cfg PeerConfig, snap *PeerSnapshot) (*Peer, error) {
	if snap == nil {
		return nil, fmt.Errorf("wire: nil snapshot")
	}
	if cfg.ID != snap.ID {
		return nil, fmt.Errorf("wire: snapshot is for peer %d, config says %d", snap.ID, cfg.ID)
	}
	// A merged hand-over appends its rows, which the ranker keeps in
	// document order all the same: the sets must match, not the orders.
	want, have := slices.Clone(cfg.Docs), slices.Clone(snap.Docs)
	slices.Sort(want)
	slices.Sort(have)
	if !slices.Equal(want, have) {
		return nil, fmt.Errorf("wire: snapshot document set does not match config")
	}
	if len(snap.Acc) != len(snap.Docs) || len(snap.Last) != len(snap.Docs) {
		return nil, fmt.Errorf("wire: snapshot ranker state does not match its document set")
	}
	cfg.Docs = nil
	p, err := NewPeer(cfg)
	if err != nil {
		return nil, err
	}
	p.restored = true
	p.rk.Adopt(snap.Docs, snap.Acc, snap.Last)
	// The config's epoch vector (the cluster's current view) and the
	// snapshot's (what the peer saw before the crash) can each be ahead
	// on different slots; mergeTables keeps the higher.
	p.mergeTables(snap)
	p.m.restore(snap.PeerStats)
	var self []p2p.Update
	for _, ob := range snap.Outbound {
		if ob.Src == cfg.ID && ob.Dest == cfg.ID {
			self = append(self, ob.Pending...)
			continue
		}
		p.primeSender(ob)
		// Pending may repeat a document (Drain hands the queue over
		// unmerged); what merges counts as consumed, or the probe never balances.
		p.rq.DeferMerge(ob.Dest, ob.Pending...)
		p.countMerges()
	}
	// Pending updates only ever leave through a self-stream sender
	// (adopted streams retransmit their inherited frames but never
	// frame new ones), so every queued destination needs one — a
	// merged checkpoint can carry a departed peer's pending updates
	// for a destination this peer never dialed itself.
	for _, dest := range p.rq.Dests() {
		p.sender(stream{src: p.cfg.ID, dest: dest})
	}
	// Its own share of what it shipped before the crash, counted sent
	// and never folded: back into the (still empty) inbox. Last, because
	// the processing loop is already running and what it folds may queue
	// updates of its own; until here the retry queue was this
	// goroutine's alone.
	if len(self) > 0 {
		p.inbox <- inItem{from: cfg.ID, us: self}
	}
	// The rows may date from a laxer stage of the threshold schedule than
	// this peer is born into, and past the last nobody else sweeps them.
	// Relax fails only on a closed peer; nobody else holds this one yet.
	_, _ = p.Relax(math.Inf(1))
	return p, nil
}

// MergeSnapshot appends a departed peer's snapshot to its (also
// crashed) successor's: ranker rows, dedup and rejected records,
// outbound streams. Nothing is in both — a document, a delivery stream's
// dedup entry and its sender state each live in exactly one place — and
// the records are merged for real by mergeTables when the successor
// restarts. Only the epoch vectors, which are positional, merge here.
// Counters are NOT merged — the cluster accounts a departed peer's
// counters separately, exactly as in the live-adoption path.
func MergeSnapshot(dst, src *PeerSnapshot) {
	dst.Docs = append(dst.Docs, src.Docs...)
	dst.Acc = append(dst.Acc, src.Acc...)
	dst.Last = append(dst.Last, src.Last...)
	dst.LastSeq = append(dst.LastSeq, src.LastSeq...)
	dst.Rejected = append(dst.Rejected, src.Rejected...)
	dst.Outbound = append(dst.Outbound, src.Outbound...)
	// Fencing only ever raises an epoch, so the higher observation is
	// the fresher one.
	dst.Epochs = append(dst.Epochs, make([]uint64, max(0, len(src.Epochs)-len(dst.Epochs)))...)
	for i, e := range src.Epochs {
		dst.Epochs[i] = max(dst.Epochs[i], e)
	}
}

// ShedFromSnapshot extracts the ranker rows for docs from a crashed
// peer's snapshot (for handing the range to a joining peer), removing
// them from the snapshot in place. The snapshot's streams and queues
// stay put: pending updates for shed documents are re-routed when the
// peer is restored and the cluster pushes the new ownership table.
func ShedFromSnapshot(s *PeerSnapshot, docs []graph.NodeID) (acc, last []float64, err error) {
	at := make(map[graph.NodeID]int, len(s.Docs))
	for j, d := range s.Docs {
		at[d] = j
	}
	gone := make([]bool, len(s.Docs))
	for _, d := range docs {
		j, ok := at[d]
		if !ok {
			return nil, nil, fmt.Errorf("wire: snapshot of peer %d does not hold doc %d", s.ID, d)
		}
		acc, last, gone[j] = append(acc, s.Acc[j]), append(last, s.Last[j]), true
	}
	keep := 0
	for j := range s.Docs {
		if !gone[j] {
			s.Docs[keep], s.Acc[keep], s.Last[keep] = s.Docs[j], s.Acc[j], s.Last[j]
			keep++
		}
	}
	s.Docs, s.Acc, s.Last = s.Docs[:keep], s.Acc[:keep], s.Last[:keep]
	return acc, last, nil
}

// EncodeSnapshot writes the checkpoint layout: magic, u64 header words
// (version, id, the five counts, statFields in order), the epochs, the
// ranker rows, the seq and rejected entries, then per outbound stream its
// words, unacked frames and pending updates. Every document and value is
// in a p2p row list; DESIGN.md, "Fault tolerance", says why not a frame's.
func EncodeSnapshot(s *PeerSnapshot, w io.Writer) error {
	b := []byte(peerSnapMagic)
	word := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	word(peerSnapVersion, uint64(uint32(s.ID)), uint64(len(s.Docs)), uint64(len(s.LastSeq)),
		uint64(len(s.Outbound)), uint64(len(s.Epochs)), uint64(len(s.Rejected)))
	for _, sf := range statFields {
		word(sf.word(&s.PeerStats))
	}
	word(s.Epochs...)
	b = p2p.EncodeRows(b, s.Docs, s.Acc, s.Last)
	for _, e := range slices.Concat(s.LastSeq, s.Rejected) {
		word(uint64(uint32(e.Src)), uint64(uint32(e.Dest)), e.Seq)
	}
	for _, ob := range s.Outbound {
		word(uint64(uint32(ob.Src)), uint64(uint32(ob.Dest)), ob.NextSeq, uint64(len(ob.Unacked)))
		for _, uf := range ob.Unacked {
			word(uf.Seq)
			docs, delta := p2p.SplitUpdates(uf.Updates)
			b = p2p.EncodeRows(b, docs, delta)
		}
		docs, delta := p2p.SplitUpdates(ob.Pending)
		b = p2p.EncodeRows(b, docs, delta)
	}
	_, err := w.Write(b)
	return err
}

// snapReader walks a checkpoint image. The first thing that does not
// fit is kept in err, and every read after it yields nothing.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	r.err, r.b = cmp.Or(r.err, fmt.Errorf("wire: snapshot "+format, args...)), nil
}

func (r *snapReader) word() (v uint64) {
	if r.fits(1, 8) == 1 {
		v, r.b = binary.LittleEndian.Uint64(r.b), r.b[8:]
	}
	return v
}

// bounded reads a word that no valid snapshot has above limit.
func (r *snapReader) bounded(limit uint64) uint64 {
	v := r.word()
	if v > limit {
		r.fail("word %d past its limit %d", v, limit)
	}
	return v
}

func (r *snapReader) peer() p2p.PeerID { return p2p.PeerID(r.bounded(math.MaxInt32)) }

// fits holds a count of records at least size bytes each against what
// is left, before anything is sized by it.
func (r *snapReader) fits(n uint64, size int) int {
	if n > uint64(len(r.b)/size) {
		r.fail("cut short: %d records of %d bytes, %d bytes left", n, size, len(r.b))
		n = 0
	}
	return int(n)
}

func (r *snapReader) rows(ncols int) ([]graph.NodeID, [][]float64) {
	docs, cols, rest, err := p2p.DecodeRows(r.b, ncols)
	if err != nil {
		r.fail("%v", err)
		return nil, make([][]float64, ncols)
	}
	r.b = rest
	return docs, cols
}

func (r *snapReader) updates() []p2p.Update {
	docs, cols := r.rows(1)
	return p2p.JoinUpdates(docs, cols[0])
}

func (r *snapReader) seqEntries(n uint64) (es []SeqEntry) {
	for range r.fits(n, 24) {
		es = append(es, SeqEntry{Src: r.peer(), Dest: r.peer(), Seq: r.word()})
	}
	return es
}

// DecodeSnapshot parses a snapshot written by EncodeSnapshot. Every
// count is held against the bytes left before it sizes anything, and any
// inconsistency, trailing bytes included, is an error, never a misparse.
func DecodeSnapshot(r io.Reader) (*PeerSnapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wire: reading snapshot: %w", err)
	}
	if !bytes.HasPrefix(b, []byte(peerSnapMagic)) {
		return nil, fmt.Errorf("wire: bad snapshot magic %q", b[:min(len(b), len(peerSnapMagic))])
	}
	sr := &snapReader{b: b[len(peerSnapMagic):]}
	// The version is judged on its own, before anything it governs:
	// another version's header is another length.
	if version := sr.word(); sr.err == nil && (version < peerSnapMinVersion || version > peerSnapVersion) {
		return nil, fmt.Errorf("wire: unsupported snapshot version %d (supported %d..%d)",
			version, peerSnapMinVersion, peerSnapVersion)
	}
	s := &PeerSnapshot{ID: sr.peer()}
	ndocs, nseq, nout, nepochs, nrej := sr.word(), sr.word(), sr.word(), sr.bounded(maxPeers), sr.word()
	for _, sf := range statFields {
		sf.setWord(&s.PeerStats, sr.word())
	}
	for range sr.fits(nepochs, 8) {
		s.Epochs = append(s.Epochs, sr.word())
	}
	docs, cols := sr.rows(2)
	s.Docs, s.Acc, s.Last = docs, cols[0], cols[1]
	if uint64(len(docs)) != ndocs {
		sr.fail("header says %d documents, rows hold %d", ndocs, len(docs))
	}
	s.LastSeq, s.Rejected = sr.seqEntries(nseq), sr.seqEntries(nrej)
	for range sr.fits(nout, 33) {
		ob := OutboundState{Src: sr.peer(), Dest: sr.peer(), NextSeq: sr.word()}
		for range sr.fits(sr.bounded(1), 9) { // one frame in flight per stream
			ob.Unacked = append(ob.Unacked, UnackedFrame{Seq: sr.word(), Updates: sr.updates()})
		}
		ob.Pending = sr.updates()
		s.Outbound = append(s.Outbound, ob)
	}
	if len(sr.b) != 0 {
		sr.fail("followed by %d trailing bytes", len(sr.b))
	}
	if sr.err != nil {
		return nil, sr.err
	}
	return s, nil
}
