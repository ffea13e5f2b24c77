package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

func TestBatchEpochCodec(t *testing.T) {
	us := []p2p.Update{{Doc: 3, Delta: 0.25}, {Doc: 9, Delta: -1.5}}
	sender, origDest, seq, epoch, out, err := decodeBatchEpoch(encodeBatchEpoch(nil, 5, 6, 77, 4, us))
	if err != nil {
		t.Fatal(err)
	}
	if sender != 5 || origDest != 6 || seq != 77 || epoch != 4 || len(out) != 2 || out[0] != us[0] || out[1] != us[1] {
		t.Fatalf("round trip: sender=%d origDest=%d seq=%d epoch=%d %v", sender, origDest, seq, epoch, out)
	}
	// Empty batch is legal, and so is the largest peer id a view can hold.
	sender, origDest, seq, epoch, out, err = decodeBatchEpoch(encodeBatchEpoch(nil, 0, maxViewSlots-1, 1, 0, nil))
	if err != nil || sender != 0 || origDest != maxViewSlots-1 || seq != 1 || epoch != 0 || len(out) != 0 {
		t.Fatalf("empty: sender=%d origDest=%d seq=%d epoch=%d %v %v", sender, origDest, seq, epoch, out, err)
	}
}

// oldLayoutBatch is a batch payload as the protocol wrote it before the
// gap-coded one: u32 n, then n x (u32 doc, f64 delta).
func oldLayoutBatch(us []p2p.Update) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(us)))
	for _, u := range us {
		b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(b, uint32(u.Doc)), math.Float64bits(u.Delta))
	}
	return b
}

// firstChanged returns the index of the first update that differs
// between a and b — the delta compared bit for bit, so that a NaN equals
// itself and the zeros differ — or -1 when there is none.
func firstChanged(a, b []p2p.Update) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i].Doc != b[i].Doc || math.Float64bits(a[i].Delta) != math.Float64bits(b[i].Delta) {
			return i
		}
	}
	return -1
}

func TestBatchEpochCodecRejectsMalformed(t *testing.T) {
	good := encodeBatchEpoch(nil, 2, 3, 9, 1, []p2p.Update{{Doc: 1, Delta: 1}})
	// payload is the stream header of good, then a batch of n entries
	// spelled out byte by byte.
	payload := func(n uint32, entries ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(slices.Clone(good[:batchEpochHeader]), n), entries...)
	}
	wide := binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(0.1)) // gap 0, 8 bytes, 0.1
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      good[:batchEpochHeader-1],
		"missing count":     good[:batchEpochHeader],
		"truncated entry":   good[:len(good)-5],
		"trailing bytes":    append(append([]byte(nil), good...), 0xff),
		"negative sender":   encodeBatchEpoch(nil, -1, 3, 9, 1, nil),
		"sender past view":  encodeBatchEpoch(nil, maxViewSlots, 3, 9, 1, nil),
		"negative origDest": encodeBatchEpoch(nil, 2, p2p.NoPeer, 9, 1, nil),
		// The receiver sizes its view by origDest+1: 1<<22 was 120 MB.
		"origDest past view": encodeBatchEpoch(nil, 2, 1<<22, 9, 1, nil),
		// The count sizes the decoded slice: 1<<28 entries would be 4 GB,
		// and the 9 bytes behind it cannot hold two.
		"count past the bytes": payload(1<<28, wide...),
		// Two wide entries, the second three bytes short: enough bytes for
		// the count, not for the value.
		"truncated value":      payload(2, append(slices.Clone(wide), wide[:6]...)...),
		"float32 value cut":    payload(2, append(slices.Clone(wide), 1, 0, 0, 0x80)...),
		"bfloat16 value cut":   payload(2, append(slices.Clone(wide), 0, 0x80)...),
		"width code 3":         payload(1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"unterminated varint":  payload(1, 0x80, 0x80, 0x80, 0x80, 0x80),
		"varint past 64 bits":  payload(1, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0),
		"document id past u32": payload(2, append(binary.AppendUvarint(nil, math.MaxUint32<<2|1), 0, 0, 0, 0, 1<<2|1, 0, 0, 0, 0)...),
		"gap past u32":         payload(1, append(binary.AppendUvarint(nil, 1<<34|1), 0, 0, 0, 0)...),
		// A frame from before the layout changed dies on its length.
		"old fixed layout": append(slices.Clone(good[:batchEpochHeader]), oldLayoutBatch([]p2p.Update{{Doc: 0, Delta: 0.5}})...),
	}
	for name, b := range cases {
		if _, _, _, _, _, err := decodeBatchEpoch(b); err == nil {
			t.Errorf("%s: accepted %d bytes", name, len(b))
		}
	}
	// The neighbours of the last two are fine: the largest id, reached in
	// one gap or by a gap of zero from itself.
	top := payload(2, append(binary.AppendUvarint(nil, math.MaxUint32<<2|1), 0, 0, 0, 0, 1, 0, 0, 0, 0)...)
	if _, _, _, _, us, err := decodeBatchEpoch(top); err != nil || len(us) != 2 || us[0].Doc != -1 || us[1].Doc != -1 {
		t.Errorf("two updates for document MaxUint32: %v, %v", us, err)
	}
}

// specialDeltas are the float64s a narrowing codec is most likely to get
// wrong: every kind of NaN, both zeros, subnormals of every width, the
// infinities, and the float64s one ulp either side of a float32 and
// the float32s one ulp either side of a bfloat16.
func specialDeltas() []float64 {
	ds := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, float64(float32(1e-40)), 0.1, 1.0 / 3}
	for _, bits := range []uint64{0x7ff8000000000000, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff8000000000000, 0xffffffffffffffff, 0x7ff4000000abcdef} {
		ds = append(ds, math.Float64frombits(bits)) // quiet, signalling, negative, with payloads
	}
	for _, f := range []float32{0.1, -2.5e-7, math.MaxFloat32, math.SmallestNonzeroFloat32, 1} {
		ds = append(ds, float64(f), math.Nextafter(float64(f), math.Inf(1)), math.Nextafter(float64(f), math.Inf(-1)))
	}
	for _, f := range bfloat16Deltas() {
		ds = append(ds, float64(f), float64(math.Nextafter32(f, float32(math.Inf(1)))), float64(math.Nextafter32(f, float32(math.Inf(-1)))))
	}
	return ds
}

// bfloat16Deltas are float32s whose low 16 bits are zero: exact shares,
// the bfloat16 subnormals, the zeros, the infinities and the largest
// finite bfloat16.
func bfloat16Deltas() []float32 {
	var fs []float32
	for _, bits := range []uint32{0x3f800000, 0xbe000000, 0x3ba80000, 0x00010000, 0x007f0000, 0x80010000, 0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7f7f0000} {
		fs = append(fs, math.Float32frombits(bits))
	}
	return fs
}

// deltaBytes is what a delta costs on the wire by the codec's rule: two
// bytes for a bfloat16, four for another float32, eight for the rest.
func deltaBytes(d float64) int {
	switch f := float32(d); {
	case float64(f) != d || math.IsNaN(d):
		return 8
	case math.Float32bits(f)<<16 != 0:
		return 4
	}
	return 2
}

// TestBatchCodecIsLossless: whatever the 64 bits of a delta, they come
// back; a delta crosses in 2 bytes exactly when it is a bfloat16, in 4
// when it is another float32, and deltaWidth says which are not in 2. Documents repeat (gap 0), jump, and reach MaxUint32.
func TestBatchCodecIsLossless(t *testing.T) {
	for _, f := range bfloat16Deltas() {
		if n := len(appendUpdates(nil, []p2p.Update{{Delta: float64(f)}})); n != 4+1+2 {
			t.Errorf("bfloat16 %v in %d bytes, want 7", f, n)
		}
		// One ulp toward zero is a float32 and no bfloat16.
		if off := math.Nextafter32(f, 0); f != 0 && len(appendUpdates(nil, []p2p.Update{{Delta: float64(off)}})) != 4+1+4 {
			t.Errorf("float32 %#08x, one ulp off a bfloat16, not in 9 bytes", math.Float32bits(off))
		}
	}
	r := rng.New(23)
	deltas := specialDeltas()
	for i := 0; i < 20000; i++ {
		deltas = append(deltas, math.Float64frombits(r.Uint64()), float64(math.Float32frombits(uint32(r.Uint64()))),
			float64(math.Float32frombits(uint32(r.Uint64())<<16)))
	}
	us := make([]p2p.Update, len(deltas))
	for i, d := range deltas {
		doc := uint32(r.Uint64()) >> (r.Intn(4) * 8) // every magnitude of gap
		if i%7 == 0 && i > 0 {
			doc = uint32(us[i-1].Doc) // a duplicate
		}
		us[i] = p2p.Update{Doc: graph.NodeID(doc), Delta: d}
	}
	us = append(us, p2p.Update{Doc: -1, Delta: 0.5}, p2p.Update{Doc: -1, Delta: 0.1}, p2p.Update{Doc: 0, Delta: 0.25})
	p2p.SortUpdates(us)
	size, wide, wantWide := 4, 0, 0
	widthCode := map[int]uint64{2: 0, 4: 1, 8: 2}
	for i, u := range us {
		gap := uint64(uint32(u.Doc))
		if i > 0 {
			gap -= uint64(uint32(us[i-1].Doc))
		}
		if deltaWidth(u.Delta) != 0 {
			wide++
		}
		n := deltaBytes(u.Delta)
		size += len(binary.AppendUvarint(nil, gap<<2|widthCode[n])) + n
		if n != 2 {
			wantWide++
		}
	}
	b := appendUpdates(nil, us)
	if len(b) != size || wide != wantWide {
		t.Fatalf("%d updates, %d of them wide, in %d bytes; want %d wide in %d bytes", len(us), wide, len(b), wantWide, size)
	}
	got, err := decodeBatch(b)
	if i := firstChanged(us, got); err != nil || i >= 0 {
		t.Fatalf("sent %d updates, received %d (%v), the first to differ is %d", len(us), len(got), err, i)
	}
}

// TestAppendUpdatesRefusesUnorderedFrame: the gaps are unsigned, so an
// unordered frame is a bug at the site that built it, reported there.
func TestAppendUpdatesRefusesUnorderedFrame(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoded a frame whose documents go backwards")
		}
	}()
	appendUpdates(nil, []p2p.Update{{Doc: 9, Delta: 1}, {Doc: 3, Delta: 1}})
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2})
	f.Add(appendUpdates(nil, nil))
	f.Add(appendUpdates(nil, []p2p.Update{{Doc: 7, Delta: 0.5}}))
	f.Add(appendUpdates(nil, []p2p.Update{{Doc: 7, Delta: 0.1}, {Doc: 7, Delta: math.NaN()}, {Doc: -1, Delta: 1e-300}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(oldLayoutBatch([]p2p.Update{{Doc: 7, Delta: 0.5}, {Doc: 1 << 20, Delta: -3.5}}))
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // varint past 64 bits
	f.Add([]byte{2, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0x1f, 0, 0, 0, 0, 2, 0, 0, 0, 0})                // running id past u32
	f.Add([]byte{1, 0, 0, 0, 0x81, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})                                  // padded varint, and 1.0 sent wide
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0xa0, 0x7f})                                                    // a signalling float32 NaN, which goes back out wide
	f.Fuzz(func(t *testing.T, b []byte) {
		us, err := decodeBatch(b)
		if err != nil {
			return
		}
		if 5*len(us) > len(b) {
			t.Fatalf("decoded %d updates out of %d bytes", len(us), len(b))
		}
		// What was accepted re-encodes to the same updates, if not to the
		// same bytes: padded varints, float32s sent wide and float32 NaNs
		// are legal input that the encoder does not write.
		again := appendUpdates(nil, us)
		back, err := decodeBatch(again)
		if i := firstChanged(us, back); err != nil || i >= 0 {
			t.Fatalf("%x decoded, re-encoded as %x, decoded again: %v, update %d changed (%v then %v)", b, again, err, i, us, back)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, frameBatchEpoch, encodeBatchEpoch(nil, 1, 2, 3, 4, []p2p.Update{{Doc: 1, Delta: 2}}))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameBatchEpoch})
	f.Add([]byte{5, 0, 0, 0, frameCredit, 1, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, err := readFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		// A successful read must reproduce the consumed prefix.
		var out bytes.Buffer
		if err := writeFrame(&out, typ, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), b[:out.Len()]) {
			t.Fatalf("read/write not idempotent for %x", b)
		}
	})
}
