// Package wire runs the distributed pagerank computation over real TCP
// connections — the paper's closing proposal ("by augmenting web
// servers and the HTTP protocol to exchange messages, web servers can
// be collectively responsible for computing the pageranks for
// documents they host"), served here by one binary frame protocol
// rather than by HTTP requests (DESIGN.md, "The frame protocol", says
// why). Each peer is a TCP server owning a share of the documents;
// pagerank update batches travel as length-prefixed binary frames.
//
// The package is used by the Cluster helper (all peers in one process,
// separate sockets on localhost) for tests and demos. The cluster
// detects global quiescence with a two-probe counter rule in the style
// of Mattern's termination detection and collects the ranks, reading
// both from its peers in process. Peer speaks plain TCP and carries no
// process-local assumptions beyond the shared read-only graph.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// Frame types: the whole protocol. Rank updates travel as 'E' frames on
// one persistent connection per delivery stream and are answered on the
// same connection by 'C' (folded) or 'N' (refused at the epoch fence);
// every other frame is one half of a request/response pair on a
// short-lived connection (see roundTrip). DESIGN.md, "The frame
// protocol", has the table of payload layouts, senders and responders.
const (
	frameBatchEpoch = 'E' // u32 sender, u32 origDest, u64 seq, u64 epoch, then a batch payload
	frameCredit     = 'C' // u64 seq: cumulative ack, the stream's credit for its next frame
	frameNackEpoch  = 'N' // u64 seq, u64 epoch: per-frame stale-epoch rejection
	framePing       = 'P' // failure-detector heartbeat: a suspicion-gossip payload
	framePong       = 'O' // heartbeat response: a suspicion-gossip payload
	frameViewReq    = 'W' // anti-entropy request: a view-digest payload
	frameViewResp   = 'D' // anti-entropy response: a view-digest payload
)

// maxFrameBytes bounds a frame to keep a corrupted length prefix from
// allocating unbounded memory.
const maxFrameBytes = 64 << 20

// frameHeader is the length of the (u32 payload length, u8 type) prefix
// of every frame.
const frameHeader = 5

// appendFrameHeader appends the header of a frame whose payload will be
// n bytes long.
func appendFrameHeader(dst []byte, typ byte, n int) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(n)), typ)
}

// appendFrame appends one whole frame: header, then payload.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	return append(appendFrameHeader(dst, typ, len(payload)), payload...)
}

// writeFrame emits one frame with a single Write, so that whatever a
// Transport does to one Write — FaultTransport drops, duplicates or
// resets it — happens to a whole frame and never to half of one.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(appendFrame(make([]byte, 0, frameHeader+len(payload)), typ, payload))
	return err
}

// readFrame reads one frame.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// reuse empties a recycled buffer for refilling — unless its last fill
// used under an eighth of the storage, which is then dropped. Every
// buffer the update path recycles (frame bytes, folded batches,
// outboxes) goes through here, so each stays sized by current traffic
// and not by the largest burst it ever carried.
func reuse[T any](s []T) []T {
	if cap(s) > 1024 && cap(s) > 8*len(s) {
		return nil
	}
	return s[:0]
}

// deltaWidth is the width code a delta crosses in: 0 for a bfloat16
// (p2p.IsBfloat16, 2 bytes), 1 for another float32 (4 bytes) and 2 for
// the rest (a float64, 8 bytes) — a NaN, unequal to itself, always is.
// Every width is exact.
//
//dpr:hotpath
func deltaWidth(d float64) uint64 {
	f := float32(d)
	if float64(f) != d {
		return 2
	}
	if !p2p.IsBfloat16(f) {
		return 1
	}
	return 0
}

// appendUpdates appends a batch payload: u32 n, then per update the
// uvarint (doc - previous doc)<<2 | w and the delta in 2<<w bytes, w
// its deltaWidth. us is ordered by document (p2p.SortUpdates).
//
//dpr:hotpath
func appendUpdates(dst []byte, us []p2p.Update) []byte {
	dst = binary.LittleEndian.AppendUint32(slices.Grow(dst, 4+13*len(us)), uint32(len(us)))
	prev := uint32(0)
	for _, u := range us {
		doc := uint32(u.Doc)
		if doc < prev {
			panic("wire: batch not ordered by document")
		}
		w := deltaWidth(u.Delta)
		dst = binary.AppendUvarint(dst, uint64(doc-prev)<<2|w)
		prev = doc
		switch w {
		case 0:
			dst = binary.LittleEndian.AppendUint16(dst, uint16(math.Float32bits(float32(u.Delta))>>16))
		case 1:
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(u.Delta)))
		default:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(u.Delta))
		}
	}
	return dst
}

// decodeBatch parses a batch payload. The count sizes nothing before it
// is held against the bytes that follow: an update is at least three.
func decodeBatch(b []byte) ([]p2p.Update, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: batch too short")
	}
	n := binary.LittleEndian.Uint32(b[:4])
	b = b[4:]
	if uint64(n) > uint64(len(b))/3 {
		return nil, fmt.Errorf("wire: batch length mismatch: %d entries, %d bytes", n, len(b))
	}
	us := make([]p2p.Update, n)
	doc := uint64(0)
	for i := range us {
		key, k := binary.Uvarint(b)
		w := key & 3
		width := 2 << w
		if doc += key >> 2; k <= 0 || w == 3 || doc > math.MaxUint32 || len(b)-k < width {
			return nil, fmt.Errorf("wire: batch entry %d: bad varint, width code, document id or length", i)
		}
		us[i].Doc = graph.NodeID(uint32(doc))
		switch w {
		case 0:
			us[i].Delta = float64(math.Float32frombits(uint32(binary.LittleEndian.Uint16(b[k:])) << 16))
		case 1:
			us[i].Delta = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[k:])))
		default:
			us[i].Delta = math.Float64frombits(binary.LittleEndian.Uint64(b[k:]))
		}
		b = b[k+width:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch", len(b))
	}
	return us, nil
}

// encodeCredit appends a credit frame's payload to dst: the cumulative
// ack, which with one frame in flight per stream is all the credit a
// receiver grants.
func encodeCredit(dst []byte, seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// decodeCredit parses a credit payload.
func decodeCredit(b []byte) (seq uint64, err error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("wire: credit payload %d bytes", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// batchEpochHeader is the length of the (sender, origDest, seq, epoch)
// prefix an epoch-stamped batch carries in front of the plain batch
// payload.
const batchEpochHeader = 24

// encodeBatchEpoch appends an epoch-stamped stream batch to dst. The
// stream is the pair (sender, origDest): origDest is the peer the batch
// was originally framed for, which under dynamic membership may differ
// from the peer that ends up folding it — a departed peer's document
// range, duplicate-suppression tables and unacknowledged inbound
// frames all migrate to its ring successor, and the successor dedups
// each redirected frame against the (sender, origDest) stream it was
// sequenced on. epoch is that of the origDest key range as the sender
// last learned it. Receivers reject (nack) frames whose epoch is behind
// their own view of the range, which fences a healed minority out of
// ranges that migrated while it was cut off.
//
//dpr:hotpath
func encodeBatchEpoch(dst []byte, sender, origDest p2p.PeerID, seq, epoch uint64, us []p2p.Update) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(sender))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(origDest))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	return appendUpdates(dst, us)
}

// appendBatchEpochFrame appends one whole epoch-batch frame to dst, so
// a sender renders header and payload into one buffer and hands the
// connection a single Write.
//
//dpr:hotpath
func appendBatchEpochFrame(dst []byte, sender, origDest p2p.PeerID, seq, epoch uint64, us []p2p.Update) []byte {
	at := len(dst)
	dst = encodeBatchEpoch(appendFrameHeader(dst, frameBatchEpoch, 0), sender, origDest, seq, epoch, us)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-frameHeader)) // known only now
	return dst
}

// decodeBatchEpoch parses an epoch-stamped stream batch payload. Peer
// ids are bounded like a view digest's slots: the receiver sizes its
// membership view by origDest, so an unbounded id is an allocation the
// sender chooses.
func decodeBatchEpoch(b []byte) (sender, origDest p2p.PeerID, seq, epoch uint64, us []p2p.Update, err error) {
	if len(b) < batchEpochHeader {
		return 0, 0, 0, 0, nil, fmt.Errorf("wire: epoch batch too short")
	}
	from, dest := binary.LittleEndian.Uint32(b[:4]), binary.LittleEndian.Uint32(b[4:8])
	if from >= maxViewSlots || dest >= maxViewSlots {
		return 0, 0, 0, 0, nil, fmt.Errorf("wire: epoch batch peer id out of range (sender %d, origDest %d)", from, dest)
	}
	sender, origDest = p2p.PeerID(from), p2p.PeerID(dest)
	seq = binary.LittleEndian.Uint64(b[8:16])
	epoch = binary.LittleEndian.Uint64(b[16:24])
	us, err = decodeBatch(b[batchEpochHeader:])
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	return sender, origDest, seq, epoch, us, nil
}

// encodeNackEpoch appends a stale-epoch rejection to dst: the rejected
// frame's sequence number plus the receiver's current epoch for the
// frame's origDest range.
func encodeNackEpoch(dst []byte, seq, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, seq), epoch)
}

// decodeNackEpoch parses a stale-epoch rejection payload.
func decodeNackEpoch(b []byte) (seq, epoch uint64, err error) {
	if len(b) != 16 {
		return 0, 0, fmt.Errorf("wire: epoch nack payload %d bytes", len(b))
	}
	return binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:]), nil
}

// maxGossipPeers bounds the suspicion set carried on a ping/pong so a
// corrupted count cannot force a large allocation.
const maxGossipPeers = 1 << 16

// encodeGossip serializes a suspicion-gossip payload for a ping or
// pong frame: the reporting slot plus the slots it currently suspects.
// An empty payload is a valid ping or pong too: a peer with no gossip
// hook answers every ping with one.
func encodeGossip(from p2p.PeerID, suspects []p2p.PeerID) []byte {
	buf := make([]byte, 8+4*len(suspects))
	binary.LittleEndian.PutUint32(buf[:4], uint32(from))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(suspects)))
	off := 8
	for _, s := range suspects {
		binary.LittleEndian.PutUint32(buf[off:], uint32(s))
		off += 4
	}
	return buf
}

// decodeGossip parses a suspicion-gossip payload.
func decodeGossip(b []byte) (from p2p.PeerID, suspects []p2p.PeerID, err error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("wire: gossip payload too short")
	}
	from = p2p.PeerID(binary.LittleEndian.Uint32(b[:4]))
	if from < 0 {
		return 0, nil, fmt.Errorf("wire: gossip from negative peer %d", from)
	}
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > maxGossipPeers {
		return 0, nil, fmt.Errorf("wire: gossip suspicion set of %d exceeds limit", n)
	}
	if uint64(len(b)-8) != 4*uint64(n) {
		return 0, nil, fmt.Errorf("wire: gossip length mismatch")
	}
	suspects = make([]p2p.PeerID, n)
	off := 8
	for i := range suspects {
		id := p2p.PeerID(binary.LittleEndian.Uint32(b[off:]))
		if id < 0 {
			return 0, nil, fmt.Errorf("wire: gossip suspect with negative peer id")
		}
		suspects[i] = id
		off += 4
	}
	return from, suspects, nil
}

// View is one peer's picture of cluster membership, one record per slot.
// It is what the cluster pushes on every membership change and what
// peers exchange as an anti-entropy digest after a partition heals: the
// higher epoch wins per slot, so both sides reconcile to the owner that
// the eviction quorum installed.
type View []ViewSlot

// ViewSlot is one slot of a View.
type ViewSlot struct {
	Addr  string     // where the slot answers now
	Epoch uint64     // ownership epoch of the slot's key range
	Gone  bool       // departed permanently
	Fwd   p2p.PeerID // adopting successor of a gone slot; NoPeer otherwise
}

// resolve follows the forwarding chain from slot to the slot that holds
// its state now: a departed slot forwards to the successor that adopted
// it, which may itself have departed since. The cluster's address table
// and a peer's rerouting after a merge both resolve through here, so a
// frame is dialed where its updates are routed.
func (v View) resolve(slot p2p.PeerID) p2p.PeerID {
	for hops := 0; int(slot) < len(v) && v[slot].Gone && v[slot].Fwd != p2p.NoPeer && hops <= len(v); hops++ {
		slot = v[slot].Fwd
	}
	return slot
}

// maxViewSlots and maxViewAddr bound a decoded view digest.
const (
	maxViewSlots = 1 << 16
	maxViewAddr  = 256
)

// noFwdWire marks "no forwarding slot" in the view digest encoding.
const noFwdWire = ^uint32(0)

// encodeView serializes a membership view digest: u32 slot count, then
// per slot u8 gone flag, u32 forward slot (noFwdWire when none), u64
// epoch, u16 address length, address bytes.
func encodeView(v View) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(v)))
	for _, s := range v {
		var gone byte
		if s.Gone {
			gone = 1
		}
		fwd := noFwdWire
		if s.Fwd != p2p.NoPeer {
			fwd = uint32(s.Fwd)
		}
		addr := s.Addr
		if len(addr) > maxViewAddr {
			addr = addr[:maxViewAddr]
		}
		buf = append(buf, gone)
		buf = binary.LittleEndian.AppendUint32(buf, fwd)
		buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(addr)))
		buf = append(buf, addr...)
	}
	return buf
}

// decodeView parses a view digest. Every count is bounded and every
// structural inconsistency is an error, never a misparse.
func decodeView(b []byte) (View, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: view digest too short")
	}
	// A slot is at least 15 bytes: the count sizes nothing the payload
	// could not hold.
	n := binary.LittleEndian.Uint32(b[:4])
	if n > maxViewSlots || int(n) > (len(b)-4)/15 {
		return nil, fmt.Errorf("wire: view digest of %d slots exceeds limit or its %d bytes", n, len(b))
	}
	v := make(View, 0, n)
	off := 4
	for i := uint32(0); i < n; i++ {
		if len(b)-off < 15 {
			return nil, fmt.Errorf("wire: truncated view digest slot %d", i)
		}
		gone := b[off]
		if gone > 1 {
			return nil, fmt.Errorf("wire: view digest slot %d has bad gone flag %d", i, gone)
		}
		fwdWire := binary.LittleEndian.Uint32(b[off+1:])
		epoch := binary.LittleEndian.Uint64(b[off+5:])
		alen := int(binary.LittleEndian.Uint16(b[off+13:]))
		off += 15
		if alen > maxViewAddr {
			return nil, fmt.Errorf("wire: view digest address of %d bytes exceeds limit", alen)
		}
		if len(b)-off < alen {
			return nil, fmt.Errorf("wire: truncated view digest address in slot %d", i)
		}
		fwd := p2p.NoPeer
		if fwdWire != noFwdWire {
			if fwdWire >= maxViewSlots {
				return nil, fmt.Errorf("wire: view digest forward slot %d out of range", fwdWire)
			}
			fwd = p2p.PeerID(fwdWire)
		}
		v = append(v, ViewSlot{Addr: string(b[off : off+alen]), Epoch: epoch, Gone: gone == 1, Fwd: fwd})
		off += alen
	}
	if off != len(b) {
		return nil, fmt.Errorf("wire: trailing bytes after view digest")
	}
	return v, nil
}
