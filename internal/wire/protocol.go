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
	"math/bits"
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
	frameBatchEpoch = 'E' // a stream batch: the stream, restated or continued (encodeStreamBatch), then a batch payload
	frameCredit     = 'C' // the acked frame's seq, low byte: the stream's credit for its next frame
	frameNackEpoch  = 'N' // u64 seq, u64 epoch: per-frame stale-epoch rejection
	framePing       = 'P' // failure-detector heartbeat: a suspicion-gossip payload
	framePong       = 'O' // heartbeat response: a suspicion-gossip payload
)

// maxFrameBytes bounds a frame to keep a corrupted length prefix from
// allocating unbounded memory.
const maxFrameBytes = 64 << 20

// maxFrameHeader is the longest frame header: a uvarint length, then the type.
const maxFrameHeader = 5

// appendFrame appends one whole frame: header, then payload.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	return append(append(binary.AppendUvarint(dst, uint64(len(payload))), typ), payload...)
}

// writeFrame emits one frame with a single Write, so that whatever a
// Transport does to one Write — FaultTransport drops, duplicates or
// resets it — happens to a whole frame and never to half of one.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(appendFrame(make([]byte, 0, maxFrameHeader+len(payload)), typ, payload))
	return err
}

// readFrame reads one frame: the first two bytes, then the rest of the
// header with the payload, so a frame under 16 KB takes two reads. A
// length in more bytes than it needs is refused, so a frame reads back
// only from the bytes writeFrame writes.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var h [maxFrameHeader]byte
	if _, err = io.ReadFull(r, h[:2]); err != nil {
		return 0, nil, err
	}
	i := 0 // h[i] is the length's last byte, or its fourth
	for ; h[i] >= 0x80 && i < maxFrameHeader-2; i++ {
		if _, err = io.ReadFull(r, h[max(i+1, 2):i+2]); err != nil { // nothing while h[1] is the next byte
			return 0, nil, err
		}
	}
	n, c := uvarint(h[:i+1])
	if c <= 0 {
		return 0, nil, fmt.Errorf("wire: frame length %x overlong or unterminated", h[:i+1])
	}
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	// Unless the length took one byte, the type is read with the payload.
	payload = make([]byte, n+uint64(min(i, 1)))
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if i == 0 {
		return h[1], payload, nil
	}
	return payload[0], payload[1:], nil
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
// (p2p.IsBfloat16), 1 for another float32 and 2 for the rest (a
// float64) — a NaN, unequal to itself, always is. Every width is exact.
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

// The batch payload is bit-packed (DESIGN.md §13): uvarint n, three bytes —
// the Rice parameter k, the lowest bfloat16 exponent lo and the width eb
// of an exponent's offset from it — then one little-endian bit stream,
// zero-padded to a byte, of n updates. An update is its document's gap
// from the previous one (from 0 for the first), Rice-coded — the
// quotient gap>>k in unary as that many 0 bits and a 1, then the k low
// bits — or, once the quotient reaches riceEscape, riceEscape 0 bits and
// the gap in 32 raw bits; then its share. A bfloat16 share is a 0 bit
// and the bfloat16 with its exponent less lo in eb bits: low to high,
// the 7-bit mantissa, the offset and the sign. Any other is a 1 bit, a
// width bit, and the float32 (0) or float64 (1) in raw bits.
const (
	batchCodes    = 3  // k, lo, eb, after the count
	riceEscape    = 24 // a quotient this long is an escape
	maxRiceK      = 31
	maxExpBits    = 8
	minUpdateBits = 10 // a gap of one bit and a bfloat16 share of nine
)

// riceParam is the Rice parameter of n gaps that sum to last:
// ⌊log₂(mean · ln 2)⌋, the best for geometric gaps of that mean.
//
//dpr:hotpath
func riceParam(last uint32, n int) uint {
	m := float64(last) * math.Ln2 / float64(max(n, 1))
	if m < 2 {
		return 0
	}
	return min(uint(bits.Len64(uint64(m)))-1, maxRiceK)
}

// putBits appends the low width bits of v, whose other bits are zero, to
// a bit stream stored up to b[at], with its last n < 8 bits, acc, not
// yet past at; width is at most 56. It stores the whole of acc, so b
// keeps 8 bytes of room past at.
//
//dpr:hotpath
func putBits(b []byte, at int, acc uint64, n uint, v uint64, width uint) (int, uint64, uint) {
	acc |= v << (n & 63) // every shift is masked, so none needs a check
	n += width
	binary.LittleEndian.PutUint64(b[at:], acc)
	return at + int(n>>3), acc >> (n & 56), n & 7
}

// appendUpdates appends a batch payload. us is ordered by document
// (p2p.SortUpdates).
//
//dpr:hotpath
func appendUpdates(dst []byte, us []p2p.Update) []byte {
	// The last document gives k, and a first pass the range of the
	// bfloat16 exponents. A share whose float32 is a bfloat16 counts,
	// whether or not it is the float64: the window need only cover the
	// bfloat16s.
	last, lo, hi := uint32(0), uint32(0xff), uint32(0)
	if len(us) > 0 {
		last = uint32(us[len(us)-1].Doc)
	}
	for _, u := range us {
		if f := float32(u.Delta); p2p.IsBfloat16(f) {
			e := math.Float32bits(f) >> 23 & 0xff
			lo, hi = min(lo, e), max(hi, e)
		}
	}
	lo = min(lo, hi)
	k, eb := riceParam(last, len(us)), uint(bits.Len32(hi-lo))
	prev, low, lo7, sw := uint32(0), uint64(1)<<k-1, lo<<7, 9+eb // sw: a bfloat16 share's width
	// A gap costs at most 1 + k bits and 7/3 of its quotient (an escape,
	// 56 bits, has a quotient of 24 or more), the quotients sum to at
	// most last>>k, and a share is at most 66 bits. The bound stays under
	// 8 times the shortest stream (10 bits an update), the ratio past
	// which reuse drops a buffer.
	most := uint(len(us))*(1+k+66) + 7*uint(last>>k)/3
	dst = binary.AppendUvarint(slices.Grow(dst, binary.MaxVarintLen64+batchCodes+int(most/8)+9), uint64(len(us)))
	dst = append(dst, byte(k), byte(lo), byte(eb))
	b, at, acc, n := dst[:cap(dst)], len(dst), uint64(0), uint(0)
	for _, u := range us {
		if uint32(u.Doc) < prev {
			panic("wire: batch not ordered by document")
		}
		gap := uint64(uint32(u.Doc) - prev)
		prev = uint32(u.Doc)
		code, width := gap<<riceEscape, uint(riceEscape+32)
		if q := uint(gap >> (k & 63)); q < riceEscape {
			code, width = (1|gap&low<<1)<<(q&63), q+1+k
		}
		f, w := math.Float32bits(float32(u.Delta)), deltaWidth(u.Delta)
		if w == 0 {
			// Most gaps leave room in the same put for a bfloat16 share.
			share := (uint64(f>>16&0x7fff-lo7) | uint64(f>>31)<<(sw-2&63)) << 1
			if width+sw > 56 {
				at, acc, n = putBits(b, at, acc, n, code, width)
				code, width = 0, 0
			}
			at, acc, n = putBits(b, at, acc, n, code|share<<(width&63), width+sw)
			continue
		}
		at, acc, n = putBits(b, at, acc, n, code, width)
		if w == 1 {
			at, acc, n = putBits(b, at, acc, n, 1|uint64(f)<<2, 34)
			continue
		}
		d := math.Float64bits(u.Delta)
		at, acc, n = putBits(b, at, acc, n, 3|d<<32>>30, 34)
		at, acc, n = putBits(b, at, acc, n, d>>32, 32)
	}
	if n > 0 {
		at++ // the last, partial byte, already stored
	}
	return b[:at]
}

// peekBits returns the bits of b from bit pos on, at least 57 of them,
// as zeros past the end of b.
//
//dpr:hotpath
func peekBits(b []byte, pos uint) uint64 {
	if i := pos >> 3; i+8 <= uint(len(b)) {
		return binary.LittleEndian.Uint64(b[i:]) >> (pos & 7)
	}
	var w uint64
	for i := len(b) - 1; i >= 0 && uint(i) >= pos>>3; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w >> (pos & 7)
}

// decodeBatch parses a batch payload. The count sizes nothing before it
// is held against the bits that follow: an update is at least
// minUpdateBits. Encodings the encoder does not write — an escaped gap
// that fits the unary code, a bfloat16 sent as a float32, a float32 as a
// float64, a header's lo and eb wider than its exponents need — are
// accepted; nonzero padding and trailing bytes are not.
func decodeBatch(b []byte) ([]p2p.Update, error) {
	n, c := uvarint(b)
	if c <= 0 || len(b) < c+batchCodes {
		return nil, fmt.Errorf("wire: batch too short")
	}
	k, lo, eb := uint(b[c]), uint64(b[c+1]), uint(b[c+2])
	if k > maxRiceK || eb > maxExpBits {
		return nil, fmt.Errorf("wire: batch Rice parameter %d or exponent width %d out of range", k, eb)
	}
	b = b[c+batchCodes:]
	end := 8 * uint(len(b))
	if n > uint64(end)/minUpdateBits {
		return nil, fmt.Errorf("wire: batch length mismatch: %d entries, %d bytes", n, len(b))
	}
	us := make([]p2p.Update, n)
	doc, pos := uint64(0), uint(0)
	// A remainder's mask; a bfloat16's mantissa and exponent offset, and
	// what turns the offset into the exponent.
	low, mant, lo7 := uint64(1)<<k-1, uint64(1)<<(7+eb)-1, lo<<7
	for i := range us {
		// Past the end of b, w reads zeros: an update cut short decodes
		// and is refused as the one that ends past the end.
		w, g := peekBits(b, pos), uint(riceEscape+32)
		if q := uint(bits.TrailingZeros64(w)); q < riceEscape {
			doc += uint64(q)<<(k&63) | w>>(q+1&63)&low
			g = q + 1 + k
		} else {
			doc += w >> riceEscape & math.MaxUint32
		}
		us[i].Doc = graph.NodeID(uint32(doc))
		// w holds at least 57 bits: a short gap leaves a bfloat16's 17.
		if pos += g; g <= 40 {
			w >>= g & 63
		} else {
			w = peekBits(b, pos)
		}
		if w&1 == 0 {
			h := w>>1&mant + lo7 // exponent and mantissa
			if h > 0x7fff {
				return nil, fmt.Errorf("wire: batch entry %d: exponent past 255", i)
			}
			us[i].Delta = float64(math.Float32frombits(uint32(w>>(8+eb&63)&1<<15|h) << 16))
			pos += 9 + eb
		} else if w = peekBits(b, pos); w&2 == 0 {
			us[i].Delta = float64(math.Float32frombits(uint32(w >> 2)))
			pos += 34
		} else {
			us[i].Delta = math.Float64frombits(w>>2&math.MaxUint32 | peekBits(b, pos+34)<<32)
			pos += 66
		}
		if pos > end || doc > math.MaxUint32 {
			return nil, fmt.Errorf("wire: batch entry %d: cut short, or document id past 32 bits", i)
		}
	}
	if end-pos >= 8 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch", (end-pos)/8)
	}
	if peekBits(b, pos) != 0 {
		return nil, fmt.Errorf("wire: nonzero padding after batch")
	}
	return us, nil
}

// uvarint reads a uvarint as binary.AppendUvarint writes it; n ≤ 0 when
// it is cut short, overflows or takes more bytes than it needs, so each
// value has one encoding.
func uvarint(b []byte) (v uint64, n int) {
	if v, n = binary.Uvarint(b); n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// encodeCredit appends a credit frame's payload to dst: the low byte of
// the seq of the frame it acks. A stream has one frame in flight and a
// receiver acks each frame by its own seq, so the byte tells the frame
// in flight from the one before it, whose copy a duplicated write acks.
func encodeCredit(dst []byte, seq uint64) []byte {
	return append(dst, byte(seq))
}

// decodeCredit parses a credit payload.
func decodeCredit(b []byte) (low byte, err error) {
	if len(b) != 1 {
		return 0, fmt.Errorf("wire: credit payload %d bytes", len(b))
	}
	return b[0], nil
}

// streamHead is what one connection has stated of its update stream
// (see stream): the last 'E' frame's sender, origDest, seq and epoch —
// the epoch of origDest's key range as the sender knew it, which a
// receiver further on nacks. Both ends keep a head per connection, and
// a new connection starts from the zero head.
type streamHead struct {
	from, origDest p2p.PeerID
	seq, epoch     uint64
	open           bool // a frame has stated the stream
}

// streamFull is the flags byte of an 'E' payload that states its whole
// stream: uvarint sender, origDest, seq and epoch follow. A continuation's
// flags byte is 0.
const streamFull = 1

// encodeStreamBatch appends an 'E' payload to dst and advances h, the
// head of the connection it goes out on. A frame h cannot continue — the
// connection's first, another stream's, one of another epoch, or one
// whose seq is neither h's nor the next — states the whole stream; any
// other carries a flags byte and the seq's low byte.
//
//dpr:hotpath
func encodeStreamBatch(dst []byte, h *streamHead, sender, origDest p2p.PeerID, seq, epoch uint64, us []p2p.Update) []byte {
	if !h.open || sender != h.from || origDest != h.origDest || epoch != h.epoch || seq-h.seq > 1 {
		dst = binary.AppendUvarint(binary.AppendUvarint(append(dst, streamFull), uint64(uint32(sender))), uint64(uint32(origDest)))
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, seq), epoch)
	} else {
		dst = append(dst, 0, byte(seq))
	}
	*h = streamHead{from: sender, origDest: origDest, seq: seq, epoch: epoch, open: true}
	return appendUpdates(dst, us)
}

// appendBatchFrame appends one whole 'E' frame to dst, for one Write.
// The payload is rendered behind room for the longest header and moved
// up to the one its length needs.
//
//dpr:hotpath
func appendBatchFrame(dst []byte, h *streamHead, sender, origDest p2p.PeerID, seq, epoch uint64, us []p2p.Update) []byte {
	at := len(dst)
	dst = encodeStreamBatch(append(dst, 0, 0, 0, 0, 0), h, sender, origDest, seq, epoch, us)
	head := append(binary.AppendUvarint(dst[at:at], uint64(len(dst)-at-maxFrameHeader)), frameBatchEpoch)
	return dst[:at+len(head)+copy(dst[at+len(head):], dst[at+maxFrameHeader:])]
}

// decodeStreamBatch parses an 'E' payload read from the connection whose
// head is h, and advances h. It refuses unknown flags and a continuation
// of a stream never stated or by a seq neither h's nor the next. Peer
// ids are bounded by maxPeers: the receiver sizes its view by origDest,
// so an unbounded id is an allocation the sender chooses.
func decodeStreamBatch(b []byte, h *streamHead) (sender, origDest p2p.PeerID, seq, epoch uint64, us []p2p.Update, err error) {
	if len(b) < 2 {
		return 0, 0, 0, 0, nil, fmt.Errorf("wire: stream batch too short")
	}
	next, n := *h, 0
	switch flags := b[0]; {
	case flags == streamFull:
		var v [4]uint64 // sender, origDest, seq, epoch
		b = b[1:]
		for i := range v {
			if v[i], n = uvarint(b); n <= 0 || i < 2 && v[i] >= maxPeers {
				return 0, 0, 0, 0, nil, fmt.Errorf("wire: stream batch header cut short, or peer id %d out of range", v[i])
			}
			b = b[n:]
		}
		next = streamHead{from: p2p.PeerID(v[0]), origDest: p2p.PeerID(v[1]), seq: v[2], epoch: v[3], open: true}
	case flags != 0 || !h.open || b[1]-byte(h.seq) > 1:
		return 0, 0, 0, 0, nil, fmt.Errorf("wire: stream batch flags %#x or seq byte %d do not continue seq %d (stated: %v)", flags, b[1], h.seq, h.open)
	default:
		next.seq += uint64(b[1] - byte(h.seq))
		b = b[2:]
	}
	if us, err = decodeBatch(b); err != nil {
		return 0, 0, 0, 0, nil, err
	}
	*h = next
	return next.from, next.origDest, next.seq, next.epoch, us, nil
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

// maxPeers bounds every peer id and slot count a decoder accepts —
// a stream's sender and origDest, a gossiped suspicion set, a
// checkpoint's epoch vector — so a corrupted number cannot force a
// large allocation.
const maxPeers = 1 << 16

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
	if n > maxPeers {
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
