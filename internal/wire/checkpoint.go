package wire

import (
	"bufio"
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
//     The same layout doubles as the handoff format (Handoff).
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
	peerSnapVersion    = 5
	peerSnapMinVersion = 5
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

// Handoff is the state transferred when a departed peer's document
// range moves to its ring successor: the ranker rows for the migrated
// documents, the per-stream duplicate-suppression table, and the
// departed peer's outbound queues (unacknowledged frames under their
// original stream identity, plus parked never-framed updates). It is
// the in-memory form of the same state a PeerSnapshot serializes.
type Handoff struct {
	Docs            []graph.NodeID
	Rank, Acc, Last []float64
	LastSeq         map[stream]uint64
	Rejected        []SeqEntry // epoch-rejected seqs, exempt from dedup
	Outbound        []OutboundState
	Epochs          []uint64 // departed peer's ownership-epoch vector

	done chan struct{} // closed by the adopting peer's processing loop
}

// HandoffFromSnapshot builds the handoff a departed peer's snapshot
// implies: everything except its counters, which the cluster folds
// into its departed-peer accumulators instead.
func HandoffFromSnapshot(s *PeerSnapshot) *Handoff {
	h := &Handoff{
		Docs:    append([]graph.NodeID(nil), s.Docs...),
		Rank:    append([]float64(nil), s.Rank...),
		Acc:     append([]float64(nil), s.Acc...),
		Last:    append([]float64(nil), s.Last...),
		LastSeq: make(map[stream]uint64, len(s.LastSeq)),
		Epochs:  append([]uint64(nil), s.Epochs...),
	}
	for _, e := range s.LastSeq {
		h.LastSeq[stream{src: e.Src, dest: e.Dest}] = e.Seq
	}
	h.Rejected = append([]SeqEntry(nil), s.Rejected...)
	for _, ob := range s.Outbound {
		h.Outbound = append(h.Outbound, OutboundState{
			Src: ob.Src, Dest: ob.Dest, NextSeq: ob.NextSeq, Window: ob.Window,
			Unacked: ob.Unacked, Pending: ob.Pending,
		})
	}
	return h
}

// snapshot assembles the peer's durable state. Callers must have
// stopped the peer's goroutines first (stop), so every field is
// quiescent.
func (p *Peer) snapshot() *PeerSnapshot {
	docs, _ := p.rk.snapshotRanks()
	s := &PeerSnapshot{
		ID:        p.cfg.ID,
		Docs:      docs,
		Rank:      append([]float64(nil), p.rk.rank...),
		Acc:       append([]float64(nil), p.rk.acc...),
		Last:      append([]float64(nil), p.rk.last...),
		Epochs:    p.view().Epochs,
		PeerStats: p.m.stats(),
	}
	for st, seq := range p.lastSeq {
		s.LastSeq = append(s.LastSeq, SeqEntry{Src: st.src, Dest: st.dest, Seq: seq})
	}
	slices.SortFunc(s.LastSeq, func(a, b SeqEntry) int {
		if a.Src != b.Src {
			return int(a.Src - b.Src)
		}
		return int(a.Dest - b.Dest)
	})
	for st, seqs := range p.rejected {
		for seq := range seqs {
			s.Rejected = append(s.Rejected, SeqEntry{Src: st.src, Dest: st.dest, Seq: seq})
		}
	}
	slices.SortFunc(s.Rejected, func(a, b SeqEntry) int {
		if a.Src != b.Src {
			return int(a.Src - b.Src)
		}
		if a.Dest != b.Dest {
			return int(a.Dest - b.Dest)
		}
		switch {
		case a.Seq < b.Seq:
			return -1
		case a.Seq > b.Seq:
			return 1
		}
		return 0
	})
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

// RestorePeer rejoins a crashed peer: a fresh listener (new address),
// the snapshot's ranker and recovery state, and senders primed to
// redeliver everything unacknowledged. Call SetPeers (on every peer,
// since the address changed) and then Start; the restored peer skips
// the initial push.
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
	copy(p.rk.rank, snap.Rank)
	copy(p.rk.acc, snap.Acc)
	copy(p.rk.last, snap.Last)
	for _, e := range snap.LastSeq {
		p.lastSeq[stream{src: e.Src, dest: e.Dest}] = e.Seq
	}
	for _, e := range snap.Rejected {
		st := stream{src: e.Src, dest: e.Dest}
		if p.rejected[st] == nil {
			p.rejected[st] = make(map[uint64]struct{})
		}
		p.rejected[st][e.Seq] = struct{}{}
	}
	// Elementwise-max merge: the config's epoch vector (the cluster's
	// current view) and the snapshot's (what the peer saw before the
	// crash) can each be ahead on different slots.
	for i, e := range snap.Epochs {
		p.adoptEpoch(p2p.PeerID(i), e)
	}
	p.m.restore(snap.PeerStats)
	p.rk.resetMass()
	for _, ob := range snap.Outbound {
		st := stream{src: ob.Src, dest: ob.Dest}
		if st.src == cfg.ID && st.dest == cfg.ID {
			// Its own share of what it shipped before the crash, counted
			// sent and never folded: back into the (still empty) inbox.
			p.bulk <- inItem{from: cfg.ID, us: ob.Pending}
			continue
		}
		if _, dup := p.senders[st]; dup {
			continue
		}
		s := p.newSender(st)
		s.nextSeq = ob.NextSeq
		if ob.Window > 0 {
			// Resume under the receiver's pre-crash credit budget; the
			// first credit ack refreshes it either way.
			s.window = ob.Window
		}
		for _, uf := range ob.Unacked {
			// Same stream identity and seq (dedup survives the crash),
			// re-stamped with the restorer's freshest epoch for the range.
			s.unacked = append(s.unacked, &frameRec{seq: uf.Seq, epoch: p.epochOf(st.dest), us: uf.Updates})
		}
		if len(s.unacked) > 0 {
			s.sendSeq = s.unacked[0].seq
			p.m.unackedFrames.Add(float64(len(s.unacked)))
		} else {
			s.sendSeq = s.nextSeq
		}
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
		p.senders[st] = s
		p.wg.Add(1)
		go s.loop()
	}
	// Pending updates only ever leave through a self-stream sender
	// (adopted streams retransmit their inherited frames but never
	// frame new ones), so every queued destination needs one — a
	// merged checkpoint can carry a departed peer's pending updates
	// for a destination this peer never dialed itself.
	for _, dest := range p.rq.Dests() {
		p.sender(stream{src: p.cfg.ID, dest: dest})
	}
	return p, nil
}

// MergeSnapshot folds a departed peer's snapshot into the (also
// crashed) successor's snapshot: ranker rows for documents the
// successor does not already hold, the per-stream dedup table (keeping
// the higher sequence number), and the departed peer's outbound
// streams. Counters are NOT merged — the cluster accounts a departed
// peer's counters separately, exactly as in the live-adoption path.
func MergeSnapshot(dst, src *PeerSnapshot) {
	have := make(map[graph.NodeID]struct{}, len(dst.Docs))
	for _, d := range dst.Docs {
		have[d] = struct{}{}
	}
	for i, d := range src.Docs {
		if _, dup := have[d]; dup {
			continue
		}
		dst.Docs = append(dst.Docs, d)
		dst.Rank = append(dst.Rank, src.Rank[i])
		dst.Acc = append(dst.Acc, src.Acc[i])
		dst.Last = append(dst.Last, src.Last[i])
	}
	seq := make(map[stream]int, len(dst.LastSeq))
	for i, e := range dst.LastSeq {
		seq[stream{src: e.Src, dest: e.Dest}] = i
	}
	for _, e := range src.LastSeq {
		if i, ok := seq[stream{src: e.Src, dest: e.Dest}]; ok {
			if e.Seq > dst.LastSeq[i].Seq {
				dst.LastSeq[i].Seq = e.Seq
			}
			continue
		}
		dst.LastSeq = append(dst.LastSeq, e)
	}
	rej := make(map[SeqEntry]struct{}, len(dst.Rejected))
	for _, e := range dst.Rejected {
		rej[e] = struct{}{}
	}
	for _, e := range src.Rejected {
		if _, dup := rej[e]; !dup {
			dst.Rejected = append(dst.Rejected, e)
		}
	}
	streams := make(map[stream]struct{}, len(dst.Outbound))
	for _, ob := range dst.Outbound {
		streams[stream{src: ob.Src, dest: ob.Dest}] = struct{}{}
	}
	for _, ob := range src.Outbound {
		if _, dup := streams[stream{src: ob.Src, dest: ob.Dest}]; dup {
			continue // cannot happen: streams migrate to exactly one successor
		}
		dst.Outbound = append(dst.Outbound, ob)
	}
	// Ownership epochs merge elementwise-max: fencing only ever raises
	// an epoch, so the higher observation is the fresher one.
	if len(src.Epochs) > len(dst.Epochs) {
		dst.Epochs = append(dst.Epochs, make([]uint64, len(src.Epochs)-len(dst.Epochs))...)
	}
	for i, e := range src.Epochs {
		if e > dst.Epochs[i] {
			dst.Epochs[i] = e
		}
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
		s.Sent, s.Processed, s.Retries, s.Reconnects, s.Redeliveries,
		s.Coalesced, s.DupDropped, s.Forwarded, s.Misdropped, s.EpochRejected,
		math.Float64bits(s.DeltaShipped), math.Float64bits(s.DeltaFolded),
		uint64(len(s.Rejected)), // the epoch-rejected seq records follow the outbound section
		s.CreditStalls, s.ShedCoalesced, s.SlowPeer,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, e := range s.Epochs {
		if err := binary.Write(bw, binary.LittleEndian, e); err != nil {
			return err
		}
	}
	for i, d := range s.Docs {
		rec := []uint64{
			uint64(uint32(d)),
			math.Float64bits(s.Rank[i]), math.Float64bits(s.Acc[i]), math.Float64bits(s.Last[i]),
		}
		for _, v := range rec {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	for _, e := range s.LastSeq {
		rec := []uint64{uint64(uint32(e.Src)), uint64(uint32(e.Dest)), e.Seq}
		for _, v := range rec {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	for _, ob := range s.Outbound {
		head := []uint64{
			uint64(uint32(ob.Src)), uint64(uint32(ob.Dest)), ob.NextSeq,
			uint64(len(ob.Unacked)), uint64(len(ob.Pending)),
			ob.Window,
		}
		for _, v := range head {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		for _, uf := range ob.Unacked {
			if err := binary.Write(bw, binary.LittleEndian, uf.Seq); err != nil {
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
	for _, e := range s.Rejected {
		rec := []uint64{uint64(uint32(e.Src)), uint64(uint32(e.Dest)), e.Seq}
		for _, v := range rec {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeUpdates(w io.Writer, us []p2p.Update) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(us))); err != nil {
		return err
	}
	for _, u := range us {
		if err := binary.Write(w, binary.LittleEndian, uint64(uint32(u.Doc))); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, math.Float64bits(u.Delta)); err != nil {
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
	var id, ndocs, nseq, nout, nepochs, nrej, shippedBits, foldedBits uint64
	if err := readU64(br, &id, &ndocs, &nseq, &nout, &nepochs,
		&s.Sent, &s.Processed, &s.Retries, &s.Reconnects, &s.Redeliveries,
		&s.Coalesced, &s.DupDropped, &s.Forwarded, &s.Misdropped, &s.EpochRejected,
		&shippedBits, &foldedBits, &nrej,
		&s.CreditStalls, &s.ShedCoalesced, &s.SlowPeer); err != nil {
		return nil, fmt.Errorf("wire: reading snapshot header: %w", err)
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
	s.DeltaShipped = math.Float64frombits(shippedBits)
	s.DeltaFolded = math.Float64frombits(foldedBits)
	s.Docs = make([]graph.NodeID, 0, capAlloc(ndocs))
	s.Rank = make([]float64, 0, capAlloc(ndocs))
	s.Acc = make([]float64, 0, capAlloc(ndocs))
	s.Last = make([]float64, 0, capAlloc(ndocs))
	s.LastSeq = make([]SeqEntry, 0, capAlloc(nseq))
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
	for i := uint64(0); i < nseq; i++ {
		var src, dest, seq uint64
		if err := readU64(br, &src, &dest, &seq); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot seq entry %d: %w", i, err)
		}
		if src > uint64(^uint32(0)>>1) || dest > uint64(^uint32(0)>>1) {
			return nil, fmt.Errorf("wire: snapshot seq entry peer id out of range")
		}
		s.LastSeq = append(s.LastSeq, SeqEntry{
			Src: p2p.PeerID(uint32(src)), Dest: p2p.PeerID(uint32(dest)), Seq: seq,
		})
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
	for i := uint64(0); i < nrej; i++ {
		var src, dest, seq uint64
		if err := readU64(br, &src, &dest, &seq); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot rejected entry %d: %w", i, err)
		}
		if src > uint64(^uint32(0)>>1) || dest > uint64(^uint32(0)>>1) {
			return nil, fmt.Errorf("wire: snapshot rejected entry peer id out of range")
		}
		s.Rejected = append(s.Rejected, SeqEntry{
			Src: p2p.PeerID(uint32(src)), Dest: p2p.PeerID(uint32(dest)), Seq: seq,
		})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("wire: trailing bytes after snapshot")
	}
	return s, nil
}
