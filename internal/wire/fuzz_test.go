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

// FuzzDecodeFrames hammers every byte-slice frame codec — epoch
// batches, suspicion gossip, membership views, stale-epoch nacks and
// credit acknowledgements — with corrupted and adversarial payloads.
// None may panic or over-allocate, and accepted input must round-trip
// through its encoder.
func FuzzDecodeFrames(f *testing.F) {
	batch := encodeBatchEpoch(nil, 1, 2, 7, 3, []p2p.Update{{Doc: 4, Delta: 0.5}, {Doc: 9, Delta: -1}, {Doc: 9, Delta: 0.1}, {Doc: -1, Delta: math.NaN()}})
	// The same stream header in front of the two layouts before the
	// bit-packed one — fixed-width, then varint-keyed with 2-, 4- or
	// 8-byte shares — which must not panic: of a count no payload could
	// hold, of a document id run past a u32, and of the unused width code 3.
	oldBatch := append(slices.Clone(batch[:batchEpochHeader]), oldLayoutBatch([]p2p.Update{{Doc: 4, Delta: 0.5}, {Doc: 9, Delta: -1}})...)
	hugeCount := append(slices.Clone(batch[:batchEpochHeader]), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5)
	pastU32 := append(binary.AppendUvarint(append(slices.Clone(batch[:batchEpochHeader]), 2, 0, 0, 0), math.MaxUint32<<2|1), 0, 0, 0, 0, 1<<2|1, 0, 0, 0, 0)
	width3 := append(slices.Clone(batch[:batchEpochHeader]), 1, 0, 0, 0, 4<<2|3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	// Bit-packed: a frame of bfloat16 shares, +Inf and 0 among them, the
	// same frame cut short, and a frame whose exponent runs past 255.
	shares := encodeBatchEpoch(nil, 1, 2, 8, 3, []p2p.Update{{Doc: 4, Delta: 0.5}, {Doc: 5, Delta: -0.0078125}, {Doc: 5, Delta: math.Inf(1)}, {Doc: 70000, Delta: 0}})
	cutShare := shares[:len(shares)-1]
	pastExp := append(slices.Clone(batch[:batchEpochHeader]), batchBits(1, 0, 250, 4, slices.Concat(gapZero, []uint64{0, 8, 15, 4, 0, 1})...)...)
	// Well-formed but for a peer id past any view: the receiver sizes its
	// membership view by origDest, so the decoder must refuse these.
	hugeDest := encodeBatchEpoch(nil, 1, 1<<22, 7, 3, nil)
	hugeSender := encodeBatchEpoch(nil, maxViewSlots, 2, 7, 3, nil)
	gossip := encodeGossip(3, []p2p.PeerID{0, 5})
	view := encodeView(View{
		{Addr: "a:1", Epoch: 2, Fwd: p2p.NoPeer},
		{Epoch: 0, Gone: true, Fwd: 2},
		{Addr: "c:3", Epoch: 9, Fwd: p2p.NoPeer},
	})
	nack := encodeNackEpoch(nil, 12, 5)
	credit := encodeCredit(nil, 1<<33)
	// The credit payload before this one: the ack, then a u32 window.
	oldCredit := binary.LittleEndian.AppendUint32(encodeCredit(nil, 1<<33), 32)
	// Gossip that claims one suspect more than it carries, and a view cut
	// short inside its last address.
	lyingGossip := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 3), 3)
	lyingGossip = append(lyingGossip, gossip[8:]...)
	cutView := view[:len(view)-1]
	for _, seed := range [][]byte{batch, oldBatch, hugeCount, pastU32, shares, cutShare, width3, pastExp, hugeDest, gossip, view, nack, credit, hugeSender, lyingGossip, cutView, nil, {0xff}, oldCredit} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if sender, origDest, seq, epoch, us, err := decodeBatchEpoch(data); err == nil {
			if sender >= maxViewSlots || origDest >= maxViewSlots {
				t.Fatalf("decoder accepted peer ids (%d, %d) past the view bound", sender, origDest)
			}
			// The batch inside need not re-encode to the same bytes (escapes
			// the unary code could carry, shares sent wider than they need
			// and loose exponent windows are accepted, never written), but
			// the header must and the updates must survive the trip.
			again := encodeBatchEpoch(nil, sender, origDest, seq, epoch, us)
			_, _, _, _, back, err := decodeBatchEpoch(again)
			if i := firstChanged(us, back); err != nil || i >= 0 || !bytes.Equal(data[:batchEpochHeader], again[:batchEpochHeader]) {
				t.Fatalf("batch-epoch round trip mismatch: %x != %x (%v, update %d)", data, again, err, i)
			}
		}
		if from, sus, err := decodeGossip(data); err == nil {
			again := encodeGossip(from, sus)
			if !bytes.Equal(data, again) {
				t.Fatalf("gossip round trip mismatch: %x != %x", data, again)
			}
		}
		if v, err := decodeView(data); err == nil {
			again := encodeView(v)
			if !bytes.Equal(data, again) {
				t.Fatalf("view round trip mismatch: %x != %x", data, again)
			}
		}
		if seq, epoch, err := decodeNackEpoch(data); err == nil {
			again := encodeNackEpoch(nil, seq, epoch)
			if !bytes.Equal(data, again) {
				t.Fatalf("nack round trip mismatch: %x != %x", data, again)
			}
		}
		if seq, err := decodeCredit(data); err == nil {
			again := encodeCredit(nil, seq)
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
