package wire

import (
	"bufio"
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
// durable state is the per-document ranker triple (rank, accumulator,
// last-pushed value), serialized in the same magic/version/records
// layout, extended with the wire layer's recovery state. Restoring a
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
//   - Per outbound stream, the last credit window the destination
//     advertised, so a restarted sender resumes under the receiver's
//     pre-crash budget instead of bursting at the configured maximum.

const (
	peerSnapMagic = "DPRW"
	// There is one format. A snapshot lives only inside the cluster that
	// wrote it, from Kill to Restart or Leave, so no reader ever meets
	// an older writer's output; the version is a corruption check and
	// the hook for a future format, and floor and ceiling coincide.
	peerSnapVersion    = 6
	peerSnapMinVersion = 6
)

// PeerSnapshot is a crashed peer's durable state.
type PeerSnapshot struct {
	ID   p2p.PeerID
	Docs []graph.NodeID

	// Ranker state, indexed like Docs.
	Rank, Acc, Last []float64

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
	Window  uint64         // last advertised credit window (0: use configured default)
	Unacked []UnackedFrame // framed, possibly transmitted, not acknowledged
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
	docs, rank, acc, last := p.rk.Rows()
	s := &PeerSnapshot{ID: p.cfg.ID, Docs: docs, Rank: rank, Acc: acc, Last: last, PeerStats: p.m.stats()}
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
		ob := OutboundState{Src: st.src, Dest: st.dest, NextSeq: snd.nextSeq, Window: snd.window}
		for _, fr := range snd.unacked {
			// The restore re-frames the updates under the same stream
			// identity and sequence number.
			ob.Unacked = append(ob.Unacked, UnackedFrame{Seq: fr.seq, Updates: fr.us})
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
	for len(p.bulk) > 0 {
		if it := <-p.bulk; it.cw == nil {
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
// successor's Adopt uses; what differs is what is the peer's own — its
// rows overwrite the fresh ranker's, its counters are restored, and its
// pending updates go back into its retry queue instead of being handled
// as a received batch. Call SetPeers (on every peer, since the address
// changed) and then Start; the restored peer skips the initial push.
func RestorePeer(cfg PeerConfig, snap *PeerSnapshot) (*Peer, error) {
	if snap == nil {
		return nil, fmt.Errorf("wire: nil snapshot")
	}
	if cfg.ID != snap.ID {
		return nil, fmt.Errorf("wire: snapshot is for peer %d, config says %d", snap.ID, cfg.ID)
	}
	if !slices.Equal(cfg.Docs, snap.Docs) {
		return nil, fmt.Errorf("wire: snapshot document set does not match config")
	}
	if len(snap.Rank) != len(snap.Docs) || len(snap.Acc) != len(snap.Docs) || len(snap.Last) != len(snap.Docs) {
		return nil, fmt.Errorf("wire: snapshot ranker state does not match its document set")
	}
	p, err := NewPeer(cfg)
	if err != nil {
		return nil, err
	}
	p.restored = true
	p.rk.SetRows(snap.Rank, snap.Acc, snap.Last)
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
		for _, u := range ob.Pending {
			// Two merged checkpoints can queue the same document for
			// the same destination; an absorbed update is consumed
			// here, exactly like live coalescing, or the termination
			// probe could never balance.
			if p.rq.DeferMerge(ob.Dest, u) {
				p.m.coalesced.Add(1)
				p.m.processed.Add(1)
			}
		}
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
		p.bulk <- inItem{from: cfg.ID, us: self}
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
	dst.Rank = append(dst.Rank, src.Rank...)
	dst.Acc = append(dst.Acc, src.Acc...)
	dst.Last = append(dst.Last, src.Last...)
	dst.LastSeq = append(dst.LastSeq, src.LastSeq...)
	dst.Rejected = append(dst.Rejected, src.Rejected...)
	dst.Outbound = append(dst.Outbound, src.Outbound...)
	// Fencing only ever raises an epoch, so the higher observation is
	// the fresher one.
	if len(src.Epochs) > len(dst.Epochs) {
		dst.Epochs = append(dst.Epochs, make([]uint64, len(src.Epochs)-len(dst.Epochs))...)
	}
	for i, e := range src.Epochs {
		dst.Epochs[i] = max(dst.Epochs[i], e)
	}
}

// ShedFromSnapshot extracts the ranker rows for docs from a crashed
// peer's snapshot (for handing the range to a joining peer), removing
// them from the snapshot in place. The snapshot's streams and queues
// stay put: pending updates for shed documents are re-routed when the
// peer is restored and the cluster pushes the new ownership table.
func ShedFromSnapshot(s *PeerSnapshot, docs []graph.NodeID) (rank, acc, last []float64, err error) {
	index := make(map[graph.NodeID]int, len(s.Docs))
	for i, d := range s.Docs {
		index[d] = i
	}
	rank = make([]float64, len(docs))
	acc = make([]float64, len(docs))
	last = make([]float64, len(docs))
	shedSet := make(map[graph.NodeID]struct{}, len(docs))
	for i, d := range docs {
		j, ok := index[d]
		if !ok {
			return nil, nil, nil, fmt.Errorf("wire: snapshot of peer %d does not hold doc %d", s.ID, d)
		}
		rank[i], acc[i], last[i] = s.Rank[j], s.Acc[j], s.Last[j]
		shedSet[d] = struct{}{}
	}
	keepDocs := s.Docs[:0]
	keepRank, keepAcc, keepLast := s.Rank[:0], s.Acc[:0], s.Last[:0]
	for j, d := range s.Docs {
		if _, gone := shedSet[d]; gone {
			continue
		}
		keepDocs = append(keepDocs, d)
		keepRank = append(keepRank, s.Rank[j])
		keepAcc = append(keepAcc, s.Acc[j])
		keepLast = append(keepLast, s.Last[j])
	}
	s.Docs, s.Rank, s.Acc, s.Last = keepDocs, keepRank, keepAcc, keepLast
	return rank, acc, last, nil
}

// snapRejectedAt is where the header's rejected-record count sits among
// the statFields counters: the count joined the header after the first
// twelve counters and before the overload-protection ones.
const snapRejectedAt = 12

// EncodeSnapshot serializes a snapshot in the checkpoint layout:
// magic, version, header, then fixed-size records.
func EncodeSnapshot(s *PeerSnapshot, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(peerSnapMagic); err != nil {
		return err
	}
	hdr := []uint64{
		peerSnapVersion, uint64(uint32(s.ID)), uint64(len(s.Docs)),
		uint64(len(s.LastSeq)), uint64(len(s.Outbound)), uint64(len(s.Epochs)),
	}
	for i, sf := range statFields {
		if i == snapRejectedAt {
			hdr = append(hdr, uint64(len(s.Rejected))) // the records follow the outbound section
		}
		hdr = append(hdr, sf.word(&s.PeerStats))
	}
	if err := writeU64(bw, append(hdr, s.Epochs...)...); err != nil {
		return err
	}
	for i, d := range s.Docs {
		if err := writeU64(bw, uint64(uint32(d)),
			math.Float64bits(s.Rank[i]), math.Float64bits(s.Acc[i]), math.Float64bits(s.Last[i])); err != nil {
			return err
		}
	}
	if err := writeSeqEntries(bw, s.LastSeq); err != nil {
		return err
	}
	for _, ob := range s.Outbound {
		if err := writeU64(bw, uint64(uint32(ob.Src)), uint64(uint32(ob.Dest)), ob.NextSeq,
			uint64(len(ob.Unacked)), uint64(len(ob.Pending)), ob.Window); err != nil {
			return err
		}
		for _, uf := range ob.Unacked {
			if err := writeU64(bw, uf.Seq); err != nil {
				return err
			}
			if err := writeUpdates(bw, uf.Updates); err != nil {
				return err
			}
		}
		if err := writeUpdates(bw, ob.Pending); err != nil {
			return err
		}
	}
	if err := writeSeqEntries(bw, s.Rejected); err != nil {
		return err
	}
	return bw.Flush()
}

func writeU64(w io.Writer, vs ...uint64) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func writeSeqEntries(w io.Writer, es []SeqEntry) error {
	for _, e := range es {
		if err := writeU64(w, uint64(uint32(e.Src)), uint64(uint32(e.Dest)), e.Seq); err != nil {
			return err
		}
	}
	return nil
}

func writeUpdates(w io.Writer, us []p2p.Update) error {
	if err := writeU64(w, uint64(len(us))); err != nil {
		return err
	}
	for _, u := range us {
		if err := writeU64(w, uint64(uint32(u.Doc)), math.Float64bits(u.Delta)); err != nil {
			return err
		}
	}
	return nil
}

func readU64(r io.Reader, vs ...*uint64) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// snapAllocCap bounds the initial capacity of any decoded slice so a
// corrupted count field costs at most a few kilobytes up front; the
// slices grow incrementally and a lying count dies on a short read
// long before it can exhaust memory.
const snapAllocCap = 4096

func capAlloc(n uint64) int {
	if n > snapAllocCap {
		return snapAllocCap
	}
	return int(n)
}

// readSeqEntries reads n (source, destination, seq) records; kind names
// the table in errors.
func readSeqEntries(r io.Reader, n uint64, kind string) ([]SeqEntry, error) {
	var es []SeqEntry
	for i := uint64(0); i < n; i++ {
		var src, dest, seq uint64
		if err := readU64(r, &src, &dest, &seq); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot %s entry %d: %w", kind, i, err)
		}
		if src > uint64(^uint32(0)>>1) || dest > uint64(^uint32(0)>>1) {
			return nil, fmt.Errorf("wire: snapshot %s entry peer id out of range", kind)
		}
		es = append(es, SeqEntry{Src: p2p.PeerID(uint32(src)), Dest: p2p.PeerID(uint32(dest)), Seq: seq})
	}
	return es, nil
}

func readUpdates(r io.Reader) ([]p2p.Update, error) {
	var n uint64
	if err := readU64(r, &n); err != nil {
		return nil, err
	}
	if n > uint64(maxFrameBytes) {
		return nil, fmt.Errorf("wire: snapshot update list of %d entries exceeds limit", n)
	}
	us := make([]p2p.Update, 0, capAlloc(n))
	for i := uint64(0); i < n; i++ {
		var doc, bits uint64
		if err := readU64(r, &doc, &bits); err != nil {
			return nil, fmt.Errorf("wire: truncated snapshot update list: %w", err)
		}
		if doc > uint64(^uint32(0)) {
			return nil, fmt.Errorf("wire: snapshot update doc %d out of range", doc)
		}
		us = append(us, p2p.Update{Doc: graph.NodeID(uint32(doc)), Delta: math.Float64frombits(bits)})
	}
	return us, nil
}

// DecodeSnapshot parses a snapshot written by EncodeSnapshot. It is
// hardened against truncated and corrupted input: every count field is
// bounded, allocation grows incrementally rather than trusting counts,
// and any structural inconsistency (including trailing garbage) is an
// error rather than a silently misparsed snapshot.
func DecodeSnapshot(r io.Reader) (*PeerSnapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("wire: reading snapshot magic: %w", err)
	}
	if string(magic) != peerSnapMagic {
		return nil, fmt.Errorf("wire: bad snapshot magic %q", magic)
	}
	// The version is read and judged on its own, before anything it
	// governs: another version's header is another length.
	var version uint64
	if err := readU64(br, &version); err != nil {
		return nil, fmt.Errorf("wire: reading snapshot header: %w", err)
	}
	if version < peerSnapMinVersion || version > peerSnapVersion {
		return nil, fmt.Errorf("wire: unsupported snapshot version %d (supported %d..%d)",
			version, peerSnapMinVersion, peerSnapVersion)
	}
	s := &PeerSnapshot{}
	var id, ndocs, nseq, nout, nepochs, nrej uint64
	hdr := []*uint64{&id, &ndocs, &nseq, &nout, &nepochs}
	stats := make([]uint64, len(statFields))
	for i := range stats {
		if i == snapRejectedAt {
			hdr = append(hdr, &nrej)
		}
		hdr = append(hdr, &stats[i])
	}
	if err := readU64(br, hdr...); err != nil {
		return nil, fmt.Errorf("wire: reading snapshot header: %w", err)
	}
	for i, sf := range statFields {
		sf.setWord(&s.PeerStats, stats[i])
	}
	if id > uint64(^uint32(0)>>1) {
		return nil, fmt.Errorf("wire: snapshot peer id %d out of range", id)
	}
	if ndocs > uint64(maxFrameBytes) || nseq > uint64(maxFrameBytes) || nout > uint64(maxFrameBytes) || nrej > uint64(maxFrameBytes) {
		return nil, fmt.Errorf("wire: snapshot header sizes out of range")
	}
	if nepochs > maxViewSlots {
		return nil, fmt.Errorf("wire: snapshot epoch vector of %d slots exceeds limit", nepochs)
	}
	s.ID = p2p.PeerID(uint32(id))
	s.Docs = make([]graph.NodeID, 0, capAlloc(ndocs))
	s.Rank = make([]float64, 0, capAlloc(ndocs))
	s.Acc = make([]float64, 0, capAlloc(ndocs))
	s.Last = make([]float64, 0, capAlloc(ndocs))
	if nepochs > 0 {
		s.Epochs = make([]uint64, 0, capAlloc(nepochs))
		for i := uint64(0); i < nepochs; i++ {
			var e uint64
			if err := readU64(br, &e); err != nil {
				return nil, fmt.Errorf("wire: reading snapshot epoch %d: %w", i, err)
			}
			s.Epochs = append(s.Epochs, e)
		}
	}
	for i := uint64(0); i < ndocs; i++ {
		var doc, rank, acc, last uint64
		if err := readU64(br, &doc, &rank, &acc, &last); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot document %d: %w", i, err)
		}
		if doc > uint64(^uint32(0)) {
			return nil, fmt.Errorf("wire: snapshot document id %d out of range", doc)
		}
		s.Docs = append(s.Docs, graph.NodeID(uint32(doc)))
		s.Rank = append(s.Rank, math.Float64frombits(rank))
		s.Acc = append(s.Acc, math.Float64frombits(acc))
		s.Last = append(s.Last, math.Float64frombits(last))
	}
	var err error
	if s.LastSeq, err = readSeqEntries(br, nseq, "seq"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nout; i++ {
		var src, dest, nextSeq, nun, npend, window uint64
		if err := readU64(br, &src, &dest, &nextSeq, &nun, &npend, &window); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot outbound %d: %w", i, err)
		}
		if window > uint64(maxFrameBytes) {
			return nil, fmt.Errorf("wire: snapshot outbound window out of range")
		}
		if src > uint64(^uint32(0)>>1) || dest > uint64(^uint32(0)>>1) {
			return nil, fmt.Errorf("wire: snapshot outbound peer id out of range")
		}
		if nun > uint64(maxFrameBytes) {
			return nil, fmt.Errorf("wire: snapshot outbound sizes out of range")
		}
		ob := OutboundState{
			Src: p2p.PeerID(uint32(src)), Dest: p2p.PeerID(uint32(dest)), NextSeq: nextSeq,
			Window: window,
		}
		for j := uint64(0); j < nun; j++ {
			var seq uint64
			if err := readU64(br, &seq); err != nil {
				return nil, fmt.Errorf("wire: reading snapshot frame seq: %w", err)
			}
			us, err := readUpdates(br)
			if err != nil {
				return nil, err
			}
			ob.Unacked = append(ob.Unacked, UnackedFrame{Seq: seq, Updates: us})
		}
		pend, err := readUpdates(br)
		if err != nil {
			return nil, err
		}
		if uint64(len(pend)) != npend {
			return nil, fmt.Errorf("wire: snapshot pending count mismatch")
		}
		ob.Pending = pend
		s.Outbound = append(s.Outbound, ob)
	}
	if s.Rejected, err = readSeqEntries(br, nrej, "rejected"); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("wire: trailing bytes after snapshot")
	}
	return s, nil
}
