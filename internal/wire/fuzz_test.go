package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// fuzzSeedSnapshot is a representative snapshot exercising every
// record kind: documents, stream-keyed dedup entries, own and adopted
// outbound streams, unacked frames, pending updates, the
// ownership-epoch vector, and the counters.
func fuzzSeedSnapshot() *PeerSnapshot {
	return &PeerSnapshot{
		ID:   1,
		Docs: []graph.NodeID{0, 2, 5},
		Acc:  []float64{0, 0.25, -0.125},
		Last: []float64{0.15, 1.25, 0.3},
		LastSeq: []SeqEntry{
			{Src: 0, Dest: 1, Seq: 12},
			{Src: 2, Dest: 4, Seq: 3},
		},
		Rejected: []SeqEntry{
			{Src: 0, Dest: 1, Seq: 9},
			{Src: 2, Dest: 4, Seq: 2},
		},
		Outbound: []OutboundState{
			{
				Src: 1, Dest: 0, NextSeq: 4,
				Unacked: []UnackedFrame{{Seq: 3, Updates: []p2p.Update{{Doc: 9, Delta: 0.5}}}},
				Pending: []p2p.Update{{Doc: 7, Delta: -0.25}},
			},
			{Src: 4, Dest: 2, NextSeq: 2,
				Unacked: []UnackedFrame{{Seq: 1, Updates: []p2p.Update{{Doc: 3, Delta: 1}}}}},
		},
		Epochs: []uint64{1, 0, 4, 0, 2},
		PeerStats: PeerStats{
			Sent: 42, Processed: 40, Forwarded: 2, EpochRejected: 1,
			UpdatesWide:  9,
			DeltaShipped: 3.5, DeltaFolded: 3.25,
		},
	}
}

// FuzzDecodeFrames hammers every byte-slice frame codec — stream
// batches, suspicion gossip, stale-epoch nacks and credit
// acknowledgements — with corrupted and adversarial payloads.
// None may panic or over-allocate, and accepted input must round-trip
// through its encoder. A stream batch is read both as a new
// connection's first frame and as the next frame of an open one.
func FuzzDecodeFrames(f *testing.F) {
	open := streamHead{from: 1, origDest: 2, seq: 7, epoch: 3, open: true}
	us := []p2p.Update{{Doc: 4, Delta: 0.5}, {Doc: 9, Delta: -1}, {Doc: 9, Delta: 0.1}, {Doc: -1, Delta: math.NaN()}}
	batch := encodeBatchEpoch(nil, 1, 2, 7, 3, us)
	next, stale := open, open
	cont := encodeStreamBatch(nil, &next, 1, 2, 8, 3, us[:2])
	newEpoch := encodeStreamBatch(nil, &stale, 1, 2, 7, 1<<40, us[2:])
	// A full header in front of the two layouts before the bit-packed
	// one — fixed-width, then varint-keyed with 2-, 4- or 8-byte shares —
	// which must not panic: of a count no payload could hold, of a
	// document id run past a u32, of the unused width code 3, and of a
	// Rice parameter past 31.
	const head = 5 // flags, sender, origDest, seq, epoch
	oldBatch := append(slices.Clone(batch[:head]), oldLayoutBatch([]p2p.Update{{Doc: 4, Delta: 0.5}, {Doc: 9, Delta: -1}})...)
	width3 := append(slices.Clone(batch[:head]), 1, 0, 0, 0, 4<<2|3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	hugeCount := append(slices.Clone(batch[:head]), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5)
	pastU32 := append(slices.Clone(batch[:head]), batchBits(2, 0, 127, 0,
		slices.Concat(escapeRun, []uint64{math.MaxUint32, 32}, shareOne, []uint64{2, 2}, shareOne)...)...)
	bigK := append(slices.Clone(batch[:head]), batchBits(1, maxRiceK+1, 127, 0, slices.Concat(gapZero, shareOne)...)...)
	// Bit-packed: a frame of bfloat16 shares, +Inf and 0 among them, the
	// same frame cut short, and a frame whose exponent runs past 255.
	shares := encodeBatchEpoch(nil, 1, 2, 8, 3, []p2p.Update{{Doc: 4, Delta: 0.5}, {Doc: 5, Delta: -0.0078125}, {Doc: 5, Delta: math.Inf(1)}, {Doc: 70000, Delta: 0}})
	cutShare := shares[:len(shares)-1]
	pastExp := append(slices.Clone(batch[:head]), batchBits(1, 0, 250, 4, slices.Concat(gapZero, []uint64{0, 8, 15, 4, 0, 1})...)...)
	// Well-formed but for a peer id past any view: the receiver sizes its
	// membership view by origDest, so the decoder must refuse these.
	hugeDest := encodeBatchEpoch(nil, 1, 1<<22, 7, 3, nil)
	hugeSender := encodeBatchEpoch(nil, maxPeers, 2, 7, 3, nil)
	gossip := encodeGossip(3, []p2p.PeerID{0, 5})
	nack := encodeNackEpoch(nil, 12, 5)
	credit := encodeCredit(nil, 1<<33|7)
	// The credit payloads before this one: the u64 ack, then with a u32
	// window; and the stream header before this one: u32 sender, u32
	// origDest, u64 seq, u64 epoch.
	oldCredit := binary.LittleEndian.AppendUint64(nil, 1<<33)
	windowed := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, 1<<33), 32)
	le := binary.LittleEndian
	oldHeader := append(le.AppendUint64(le.AppendUint64(le.AppendUint32(le.AppendUint32(nil, 1), 2), 7), 3), batch[head:]...)
	// Gossip that claims one suspect more than it carries.
	lyingGossip := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 3), 3)
	lyingGossip = append(lyingGossip, gossip[8:]...)
	for _, seed := range [][]byte{batch, cont, oldBatch, width3, hugeCount, pastU32, shares, cutShare, bigK, pastExp, hugeDest, gossip, nack, credit, hugeSender, lyingGossip, nil, {0xff}, windowed, newEpoch, oldCredit, oldHeader} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, h0 := range []streamHead{{}, open} {
			h := h0
			sender, origDest, seq, epoch, us, err := decodeStreamBatch(data, &h)
			if err != nil {
				if h != h0 {
					t.Fatalf("refused %x, but moved the head from %+v to %+v", data, h0, h)
				}
				continue
			}
			if sender >= maxPeers || origDest >= maxPeers {
				t.Fatalf("decoder accepted peer ids (%d, %d) past the view bound", sender, origDest)
			}
			// Re-encoded on the same head, the frame need not be the same
			// bytes (escapes the unary code could carry, shares sent wider
			// than they need, loose exponent windows and a repeated
			// epoch are accepted, never written), but it decodes to the
			// same stream and updates and leaves both heads where the
			// first decode left its own.
			enc, dec := h0, h0
			again := encodeStreamBatch(nil, &enc, sender, origDest, seq, epoch, us)
			s2, o2, q2, e2, back, err := decodeStreamBatch(again, &dec)
			if i := firstChanged(us, back); err != nil || i >= 0 || s2 != sender || o2 != origDest || q2 != seq || e2 != epoch || enc != h || dec != h {
				t.Fatalf("stream batch round trip mismatch from head %+v: %x != %x (%v, update %d, head %+v / %+v / %+v)", h0, data, again, err, i, h, enc, dec)
			}
		}
		if from, sus, err := decodeGossip(data); err == nil {
			again := encodeGossip(from, sus)
			if !bytes.Equal(data, again) {
				t.Fatalf("gossip round trip mismatch: %x != %x", data, again)
			}
		}
		if seq, epoch, err := decodeNackEpoch(data); err == nil {
			again := encodeNackEpoch(nil, seq, epoch)
			if !bytes.Equal(data, again) {
				t.Fatalf("nack round trip mismatch: %x != %x", data, again)
			}
		}
		if low, err := decodeCredit(data); err == nil {
			again := encodeCredit(nil, uint64(low))
			if !bytes.Equal(data, again) {
				t.Fatalf("credit round trip mismatch: %x != %x", data, again)
			}
		}
	})
}

// FuzzDecodeCheckpoint hammers the snapshot decoder with corrupted,
// truncated and adversarial input. The decoder must never panic, never
// allocate unboundedly, and — when it does accept input — re-encoding
// its result must round-trip (decode∘encode is the identity on the
// accepted set), which catches fields silently dropped or misparsed.
func FuzzDecodeCheckpoint(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeSnapshot(fuzzSeedSnapshot(), &seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	raw := seed.Bytes()
	for _, cut := range []int{0, 3, 4, 11, len(raw) / 2, len(raw) - 1} {
		if cut <= len(raw) {
			f.Add(append([]byte(nil), raw[:cut]...))
		}
	}
	// A header that lies about its record counts.
	lying := append([]byte(nil), raw...)
	for i := 20; i < 44 && i < len(lying); i++ {
		lying[i] = 0xff
	}
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(snap.Acc) != len(snap.Docs) || len(snap.Last) != len(snap.Docs) {
			t.Fatalf("accepted snapshot with inconsistent ranker state: %d docs, %d/%d values",
				len(snap.Docs), len(snap.Acc), len(snap.Last))
		}
		var out bytes.Buffer
		if err := EncodeSnapshot(snap, &out); err != nil {
			t.Fatalf("re-encoding accepted snapshot: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding re-encoded snapshot: %v", err)
		}
		var final bytes.Buffer
		if err := EncodeSnapshot(again, &final); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), final.Bytes()) {
			t.Fatal("encode/decode/encode is not a fixed point")
		}
	})
}

// FuzzFrameStream runs a stream's sender encoder and its reader's
// decoder, one head each per connection, through a script read from the
// fuzz input, a byte a choice: a new frame; the last write again, as a
// duplicating link delivers it; a reset, after which the frame in flight
// opens the next connection; a nack, after which the next frame carries
// the epoch the receiver named; an epoch change; a turn to the other
// stream, adopted, whose origDest is not the receiver; and a malformed
// continuation — a seq that skips, a flag no sender writes, a frame cut
// short, or a continuation on a connection that never stated its stream.
// Every frame read must be the whole (sender, origDest, seq, epoch,
// updates) that was sent; a malformed one must be refused, leaving the
// head where it was, and the connection is dropped with it.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 2, 1, 5, 0, 3, 9, 7, 1, 2, 0, 4, 200, 1, 0, 1, 1, 0})
	f.Add([]byte{7, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 6, 0, 0, 0, 6, 1, 0, 0, 6, 2, 3, 0, 6, 3, 0, 5, 6, 2, 0, 0, 11, 4, 4, 9, 0, 0, 5, 0, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		type link struct {
			enc, dec       streamHead // the sender's and the reader's, for the connection up now
			from, origDest p2p.PeerID
			epoch          uint64 // the sender's, for origDest's range
			seq, frEpoch   uint64 // the frame last sent, in flight, as it was built
			us             []p2p.Update
			payload        []byte // its payload as last written on this connection
		}
		// Seqs start where their low byte soon wraps, or far past it.
		links := [2]*link{{from: 1, origDest: 2, seq: 250 + uint64(next()%8)}, {from: 3, origDest: 9, seq: uint64(next()) << 20}}
		l := links[0]
		read := func(payload []byte) {
			t.Helper()
			from, origDest, seq, epoch, us, err := decodeStreamBatch(payload, &l.dec)
			if err != nil || from != l.from || origDest != l.origDest || seq != l.seq || epoch != l.frEpoch || firstChanged(l.us, us) >= 0 {
				t.Fatalf("read (%d, %d, %d, %d, %v, %v), sent (%d, %d, %d, %d, %v)", from, origDest, seq, epoch, us, err, l.from, l.origDest, l.seq, l.frEpoch, l.us)
			}
			if low, err := decodeCredit(encodeCredit(nil, seq)); err != nil || low != byte(l.seq) {
				t.Fatalf("credit for %d acks %d, %v", l.seq, low, err)
			}
		}
		send := func() {
			t.Helper()
			typ, payload, err := readFrame(bytes.NewReader(appendBatchFrame(nil, &l.enc, l.from, l.origDest, l.seq, l.frEpoch, l.us)))
			if err != nil || typ != frameBatchEpoch {
				t.Fatalf("frame %q, %v", typ, err)
			}
			l.payload = payload
			read(payload)
		}
		fresh := func() {
			t.Helper()
			l.seq, l.frEpoch, l.us = l.seq+1, l.epoch, make([]p2p.Update, 0, 5)
			for n, doc := next()%6, graph.NodeID(next()); n > 0; n-- {
				l.us = append(l.us, p2p.Update{Doc: doc, Delta: float64(int8(next())) / 16})
				doc += graph.NodeID(next())
			}
			send()
		}
		for len(script) > 0 {
			switch next() % 7 {
			case 0:
				fresh()
			case 1: // the link writes the last frame twice
				if l.payload != nil {
					read(l.payload)
				}
			case 2: // reset: the frame in flight goes out again on a new connection
				l.enc, l.dec, l.payload = streamHead{}, streamHead{}, nil
				if l.us != nil {
					send()
				}
			case 3: // nacked: the frame is withdrawn, and the next carries the receiver's epoch
				l.epoch += uint64(next())
				fresh()
			case 4:
				l.epoch = uint64(next()) << (next() % 8 * 8)
			case 5:
				if l == links[0] {
					l = links[1]
				} else {
					l = links[0]
				}
			case 6:
				h, dec := l.enc, l.dec
				if !h.open {
					h = streamHead{from: l.from, origDest: l.origDest, seq: l.seq, epoch: l.epoch, open: true}
				}
				b := encodeStreamBatch(nil, &h, l.from, l.origDest, h.seq+1, h.epoch, l.us)
				switch next() % 4 {
				case 0:
					b[1] += 1 + next()%254
				case 1:
					b[0] |= 4 << (next() % 6)
				case 2:
					b = b[:len(b)-1-int(next())%len(b)]
				case 3:
					dec = streamHead{}
				}
				before := dec
				if _, _, _, _, _, err := decodeStreamBatch(b, &dec); err == nil || dec != before {
					t.Fatalf("malformed continuation %x on head %+v: read as head %+v, %v", b, before, dec, err)
				}
				l.enc, l.dec, l.payload = streamHead{}, streamHead{}, nil
			}
		}
	})
}
