package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

// encodeBatchEpoch is the 'E' payload that opens a connection: it
// states the whole stream, as a raw test sender writes each frame.
func encodeBatchEpoch(dst []byte, sender, origDest p2p.PeerID, seq, epoch uint64, us []p2p.Update) []byte {
	return encodeStreamBatch(dst, new(streamHead), sender, origDest, seq, epoch, us)
}

// rawHead is the head of the stream a raw test receiver reads. Such a
// receiver reads one connection at a time, and every connection opens
// with a frame that states the whole stream, which resets it.
var rawHead struct {
	sync.Mutex
	streamHead
}

// decodeBatchEpoch decodes an 'E' payload a raw test receiver read, as
// the next frame of the connection it read the last one from.
func decodeBatchEpoch(b []byte) (sender, origDest p2p.PeerID, seq, epoch uint64, us []p2p.Update, err error) {
	rawHead.Lock()
	defer rawHead.Unlock()
	return decodeStreamBatch(b, &rawHead.streamHead)
}

// framePayload is the payload of the frame b starts with.
func framePayload(b []byte) []byte {
	_, n := binary.Uvarint(b)
	return b[n+1:]
}

// TestBatchEpochCodec: a connection's frames decode to the stream, seq
// and epoch they were sent with. The first states the whole stream; the
// others spend two bytes on it, unless the epoch changed, which restates
// the stream too. A duplicate decodes again, and a stream's first frame
// may come again on the same connection.
func TestBatchEpochCodec(t *testing.T) {
	us := []p2p.Update{{Doc: 3, Delta: 0.25}, {Doc: 9, Delta: -1.5}}
	var enc, dec streamHead
	for i, fr := range []struct {
		sender, origDest p2p.PeerID
		seq, epoch       uint64
		head             int // bytes in front of the batch payload
	}{
		{5, 6, 255, 4, 1 + 1 + 1 + 2 + 1},
		{5, 6, 256, 4, 2},
		{5, 6, 256, 4, 2},                       // a duplicate
		{5, 6, 257, 1 << 20, 1 + 1 + 1 + 2 + 3}, // a new epoch: restated
		{5, 6, 258, 1 << 20, 2},
		{5, 6, 258, 7, 1 + 1 + 1 + 2 + 1}, // the epoch need not grow
		{5, 9, 259, 7, 1 + 1 + 1 + 2 + 1}, // another stream: restated
		{5, 9, 261, 7, 1 + 1 + 1 + 2 + 1}, // a seq that skips: restated
		{0, maxPeers - 1, 0, 0, 1 + 1 + 3 + 1 + 1},
	} {
		b := encodeStreamBatch(nil, &enc, fr.sender, fr.origDest, fr.seq, fr.epoch, us)
		if head := len(b) - len(appendUpdates(nil, us)); head != fr.head {
			t.Errorf("frame %d: %d header bytes, want %d", i, head, fr.head)
		}
		sender, origDest, seq, epoch, out, err := decodeStreamBatch(b, &dec)
		if err != nil || sender != fr.sender || origDest != fr.origDest || seq != fr.seq || epoch != fr.epoch || firstChanged(us, out) >= 0 {
			t.Fatalf("frame %d: sender=%d origDest=%d seq=%d epoch=%d %v %v, want %+v", i, sender, origDest, seq, epoch, out, err, fr)
		}
	}
	// An empty batch is legal.
	if _, _, _, _, out, err := decodeStreamBatch(encodeBatchEpoch(nil, 1, 2, 3, 4, nil), new(streamHead)); err != nil || len(out) != 0 {
		t.Fatalf("empty: %v %v", out, err)
	}
}

// TestStreamBatchRefusesBrokenContinuation: a continuation is refused
// on a connection whose stream was never stated, when its seq is
// neither the last nor the next, when it carries a flag no sender
// writes, and when its stated stream is cut short or overlong.
func TestStreamBatchRefusesBrokenContinuation(t *testing.T) {
	us := []p2p.Update{{Doc: 1, Delta: 1}}
	batch := appendUpdates(nil, us)
	open := streamHead{from: 2, origDest: 3, seq: 9, epoch: 1, open: true}
	for name, c := range map[string]struct {
		h streamHead
		b []byte
	}{
		"unstated stream":    {streamHead{}, append([]byte{0, 1}, batch...)},
		"seq skips one":      {open, append([]byte{0, 11}, batch...)},
		"seq goes back":      {open, append([]byte{0, 8}, batch...)},
		"seq wraps back":     {streamHead{seq: 256, open: true}, append([]byte{0, 255}, batch...)},
		"unknown flag":       {open, append([]byte{4, 10}, batch...)},
		"epoch flag":         {open, append([]byte{2, 10, 1}, batch...)},
		"full and a flag":    {open, append([]byte{streamFull | 2}, encodeBatchEpoch(nil, 2, 3, 10, 1, us)[1:]...)},
		"stated epoch cut":   {streamHead{}, []byte{streamFull, 2, 3, 10, 0x80}},
		"overlong sender":    {streamHead{}, append([]byte{streamFull, 0x82, 0, 3, 10, 1}, batch...)},
		"no seq byte":        {open, []byte{0}},
		"continuation cut":   {open, []byte{0, 10}},
		"old 24-byte header": {streamHead{}, append(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 2), 3), 10), 1), batch...)},
	} {
		h := c.h
		if _, _, _, _, _, err := decodeStreamBatch(c.b, &h); err == nil {
			t.Errorf("%s: accepted %x", name, c.b)
		} else if h != c.h {
			t.Errorf("%s: refused, but moved the head from %+v to %+v", name, c.h, h)
		}
	}
	// The seq byte wraps forward.
	h := streamHead{seq: 255, open: true}
	if _, _, seq, _, _, err := decodeStreamBatch(append([]byte{0, 0}, batch...), &h); err != nil || seq != 256 {
		t.Fatalf("seq after 255: %d, %v", seq, err)
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

// batchBits is a batch payload spelled out field by field: the count,
// the header bytes k, lo and eb, then the bit stream as (value, width)
// pairs, zero-padded to a byte.
func batchBits(n uint32, k, lo, eb byte, fields ...uint64) []byte {
	b := append(binary.AppendUvarint(nil, uint64(n)), k, lo, eb)
	at := 0
	for i := 0; i < len(fields); i += 2 {
		for j := uint64(0); j < fields[i+1]; j, at = j+1, at+1 {
			if at%8 == 0 {
				b = append(b, 0)
			}
			b[len(b)-1] |= byte(fields[i]>>j&1) << (at % 8)
		}
	}
	return b
}

// Bit-stream fields for batchBits: a gap of zero with k = 0, an escape's
// run of zeros, and the share 1.0 with eb = 0: a bfloat16's 0 bit, the
// mantissa and the sign, its exponent the header's lo, 127.
var (
	gapZero   = []uint64{1, 1}
	escapeRun = []uint64{0, riceEscape}
	shareOne  = []uint64{0, 9}
)

func TestBatchEpochCodecRejectsMalformed(t *testing.T) {
	good := encodeBatchEpoch(nil, 2, 3, 9, 1, []p2p.Update{{Doc: 1, Delta: 1}})
	// payload is the stream header of good in front of a batch payload.
	const head = 5 // flags, sender, origDest, seq, epoch
	payload := func(batch []byte) []byte { return append(slices.Clone(good[:head]), batch...) }
	one := slices.Concat(gapZero, shareOne)
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      good[:head-1],
		"missing count":     good[:head],
		"short batch head":  good[:head+1+batchCodes-1],
		"truncated entry":   good[:len(good)-1],
		"trailing bytes":    append(slices.Clone(good), 0),
		"negative sender":   encodeBatchEpoch(nil, -1, 3, 9, 1, nil),
		"sender past view":  encodeBatchEpoch(nil, maxPeers, 3, 9, 1, nil),
		"negative origDest": encodeBatchEpoch(nil, 2, p2p.NoPeer, 9, 1, nil),
		// The receiver sizes its view by origDest+1: 1<<22 was 120 MB.
		"origDest past view": encodeBatchEpoch(nil, 2, 1<<22, 9, 1, nil),
		// The count sizes the decoded slice: 1<<28 entries would be 4 GB.
		// An update is at least 10 bits, so two do not fit in 16.
		"count past the bytes": payload(batchBits(1<<28, 0, 127, 0, slices.Concat(one, one, one)...)),
		"count past the bits":  payload(batchBits(2, 0, 127, 0, one...)),
		"k out of range":       payload(batchBits(1, maxRiceK+1, 127, 0, one...)),
		"eb out of range":      payload(batchBits(1, 0, 127, maxExpBits+1, slices.Concat(gapZero, []uint64{0, 18})...)),
		// lo 250 plus an offset of 15 in eb = 4 bits.
		"exponent past 255": payload(batchBits(1, 0, 250, 4, slices.Concat(gapZero, []uint64{0, 8, 15, 4, 0, 1})...)),
		// With k = 31 a quotient of 2 is the gap 1<<32.
		"unary gap past u32": payload(batchBits(1, 31, 127, 0, slices.Concat([]uint64{4, 3, 0, 31}, shareOne)...)),
		// An escaped MaxUint32, then a gap of 1.
		"document id past u32": payload(batchBits(2, 0, 127, 0,
			slices.Concat(escapeRun, []uint64{math.MaxUint32, 32}, shareOne, []uint64{2, 2}, shareOne)...)),
		"cut in the escape":       payload(batchBits(1, 0, 127, 0, slices.Concat(escapeRun, []uint64{5, 16})...)),
		"cut in the remainder":    payload(batchBits(1, 20, 127, 0, []uint64{1, 1, 0, 15}...)),
		"cut before the share":    payload(batchBits(1, 15, 127, 0, []uint64{1, 1, 0, 15}...)),
		"cut in a bfloat16":       payload(batchBits(1, 7, 127, 0, []uint64{1, 1, 0, 7, 0, 8}...)),
		"cut in a float32":        payload(batchBits(1, 0, 127, 0, slices.Concat(gapZero, []uint64{1, 2, 0, 13})...)),
		"cut in a float64":        payload(batchBits(1, 0, 127, 0, slices.Concat(gapZero, []uint64{3, 2, 0, 13})...)),
		"cut in a float64's top":  payload(batchBits(1, 0, 127, 0, slices.Concat(gapZero, []uint64{3, 2, 0, 32, 0, 5})...)),
		"nonzero padding":         payload(batchBits(1, 0, 127, 0, slices.Concat(one, []uint64{1, 6})...)),
		"trailing zero byte":      payload(batchBits(1, 0, 127, 0, slices.Concat(one, []uint64{0, 14})...)),
		"old fixed layout":        payload(oldLayoutBatch([]p2p.Update{{Doc: 0, Delta: 0.5}})),
		"old gap-coded bfloat16s": payload([]byte{1, 0, 0, 0, 0, 0, 0x3f}),
	}
	for name, b := range cases {
		if _, _, _, _, _, err := decodeStreamBatch(b, new(streamHead)); err == nil {
			t.Errorf("%s: accepted %d bytes", name, len(b))
		}
	}
	// The neighbours are fine: the largest id, reached by an escape and
	// then by a gap of zero from itself, and the largest exponent.
	top := payload(batchBits(2, 0, 127, 0, slices.Concat(escapeRun, []uint64{math.MaxUint32, 32}, shareOne, gapZero, shareOne)...))
	if _, _, _, _, us, err := decodeStreamBatch(top, new(streamHead)); err != nil || len(us) != 2 || us[0].Doc != -1 || us[1].Doc != -1 || us[1].Delta != 1 {
		t.Errorf("two updates for document MaxUint32: %v, %v", us, err)
	}
	inf := payload(batchBits(1, 0, 250, 3, slices.Concat(gapZero, []uint64{0, 8, 5, 3, 1, 1})...))
	if _, _, _, _, us, err := decodeStreamBatch(inf, new(streamHead)); err != nil || len(us) != 1 || !math.IsInf(us[0].Delta, -1) {
		t.Errorf("exponent 255 with a zero mantissa: %v, %v", us, err)
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

// gapBits is what a document gap costs on the wire, Rice-coded with
// parameter k: riceEscape+32 bits once the quotient reaches riceEscape.
func gapBits(gap uint64, k int) int {
	if q := int(gap >> k); q < riceEscape {
		return q + 1 + k
	}
	return riceEscape + 32
}

// shareBits is what a share costs on the wire: 9+eb bits for a
// bfloat16, 34 for another float32, 66 for the rest.
func shareBits(d float64, eb int) int {
	switch f := float32(d); {
	case float64(f) != d || math.IsNaN(d):
		return 66
	case math.Float32bits(f)<<16 != 0:
		return 34
	}
	return 9 + eb
}

// TestBatchCodecIsLossless: whatever the 64 bits of a delta, they come
// back; an update costs gapBits plus shareBits, with k ⌊log₂(mean gap · ln 2)⌋ and
// eb the width of the frame's range of bfloat16 exponents, and
// deltaWidth says which shares are no bfloat16. Documents repeat (gap
// 0), jump, and reach MaxUint32.
func TestBatchCodecIsLossless(t *testing.T) {
	for _, f := range bfloat16Deltas() {
		// One update, for document 0: a count of one byte, k = 0, eb = 0,
		// a gap of one bit.
		if n := len(appendUpdates(nil, []p2p.Update{{Delta: float64(f)}})); n != 1+batchCodes+2 {
			t.Errorf("bfloat16 %v in %d bytes, want %d", f, n, 1+batchCodes+2)
		}
		// One ulp toward zero is a float32 and no bfloat16.
		if off := math.Nextafter32(f, 0); f != 0 && len(appendUpdates(nil, []p2p.Update{{Delta: float64(off)}})) != 1+batchCodes+5 {
			t.Errorf("float32 %#08x, one ulp off a bfloat16, not in %d bytes", math.Float32bits(off), 1+batchCodes+5)
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
	k := min(int(math.Floor(math.Log2(math.Ln2*math.MaxUint32/float64(len(us))))), maxRiceK)
	lo, hi := 255, 0
	for _, u := range us {
		if deltaWidth(u.Delta) == 0 {
			e := int(math.Float32bits(float32(u.Delta)) >> 23 & 0xff)
			lo, hi = min(lo, e), max(hi, e)
		}
	}
	eb := bits.Len(uint(hi - lo))
	size, wide, wantWide := 0, 0, 0
	for i, u := range us {
		gap := uint64(uint32(u.Doc))
		if i > 0 {
			gap -= uint64(uint32(us[i-1].Doc))
		}
		if deltaWidth(u.Delta) != 0 {
			wide++
		}
		n := shareBits(u.Delta, eb)
		if size += gapBits(gap, k) + n; n != 9+eb {
			wantWide++
		}
	}
	b := appendUpdates(nil, us)
	c := len(binary.AppendUvarint(nil, uint64(len(us)))) // the count's bytes
	if want := c + batchCodes + (size+7)/8; len(b) != want || int(b[c]) != k || int(b[c+2]) != eb || wide != wantWide {
		t.Fatalf("%d updates, %d of them wide, in %d bytes with k %d, eb %d; want %d wide in %d bytes with k %d, eb %d",
			len(us), wide, len(b), b[c], b[c+2], wantWide, want, k, eb)
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
	f.Add(appendUpdates(nil, []p2p.Update{{Doc: 3, Delta: 0.5}, {Doc: 90, Delta: -0.0078125}, {Doc: 1 << 30, Delta: math.Inf(1)}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(oldLayoutBatch([]p2p.Update{{Doc: 7, Delta: 0.5}, {Doc: 1 << 20, Delta: -3.5}}))
	f.Add(batchBits(2, 0, 127, 0, slices.Concat(escapeRun, []uint64{math.MaxUint32, 32}, shareOne, gapZero, shareOne)...)) // document MaxUint32 twice
	f.Add(batchBits(1, 0, 250, 4, slices.Concat(gapZero, []uint64{0, 8, 15, 4, 0, 1})...))                                 // exponent past 255
	f.Add(batchBits(1, 0, 127, 0, slices.Concat(escapeRun, []uint64{7, 32}, []uint64{1, 2, 0x3f800000, 32})...))           // an escape that fits the unary code, and 1.0 as a float32
	f.Fuzz(func(t *testing.T, b []byte) {
		us, err := decodeBatch(b)
		if err != nil {
			return
		}
		if minUpdateBits*len(us) > 8*(len(b)-1-batchCodes) {
			t.Fatalf("decoded %d updates out of %d bytes", len(us), len(b))
		}
		// What was accepted re-encodes to the same updates, if not to the
		// same bytes: escapes the unary code could carry, bfloat16s sent
		// as float32s, float32s as float64s and any lo and eb that cover
		// the exponents are legal input that the encoder does not write.
		again := appendUpdates(nil, us)
		back, err := decodeBatch(again)
		if i := firstChanged(us, back); err != nil || i >= 0 {
			t.Fatalf("%x decoded, re-encoded as %x, decoded again: %v, update %d changed (%v then %v)", b, again, err, i, us, back)
		}
	})
}

// FuzzBatchRoundTrip encodes a frame the fuzzer describes, 13 bytes an
// update — a shape byte, a u32 gap and the u64 delta bits — and decodes
// it again: every update must come back bit for bit. The shape's low
// five bits shift the gap right, to reach small gaps and gaps of 0, and
// its next two pick the delta: the 64 bits as they are, the low 32 as a
// float32, the low 16 as a bfloat16, or that bfloat16 one ulp off.
func FuzzBatchRoundTrip(f *testing.F) {
	record := func(shape byte, gap uint32, raw uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32([]byte{shape}, gap), raw)
	}
	f.Add([]byte{})
	f.Add(slices.Concat(record(0, 7, math.Float64bits(0.5)), record(31, 1, 0), record(1<<6, 9, 0x80000000)))
	f.Add(slices.Concat(record(2<<5, 1<<20, 0x3f80), record(2<<5, 0, 0x8000), record(2<<5, 0, 0x7f80), record(3<<5|4, 3, 0x3e00)))
	f.Add(slices.Concat(record(0, math.MaxUint32, 0x7ff8000000000001), record(0, 0, 0xfff0000000000000), record(0, 0, 1), record(1<<5, 0, 0x00000001)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var us []p2p.Update
		doc := uint64(0)
		for ; len(data) >= 13; data = data[13:] {
			shape, raw := data[0], binary.LittleEndian.Uint64(data[5:])
			if doc += uint64(binary.LittleEndian.Uint32(data[1:]) >> (shape & 31)); doc > math.MaxUint32 {
				break
			}
			d := math.Float64frombits(raw)
			switch shape >> 5 & 3 {
			case 1:
				d = float64(math.Float32frombits(uint32(raw)))
			case 2:
				d = float64(math.Float32frombits(uint32(raw) << 16))
			case 3:
				d = float64(math.Float32frombits(uint32(raw)<<16 ^ 1))
			}
			us = append(us, p2p.Update{Doc: graph.NodeID(uint32(doc)), Delta: d})
		}
		// An update is at most a gap of riceEscape+32 bits and a float64
		// share of 66.
		b := appendUpdates(nil, us)
		if len(b) > binary.MaxVarintLen64+batchCodes+(riceEscape+32+66+7)/8*len(us) {
			t.Fatalf("%d updates in %d bytes", len(us), len(b))
		}
		got, err := decodeBatch(b)
		if i := firstChanged(us, got); err != nil || i >= 0 {
			t.Fatalf("%d updates as %x came back as %d (%v), the first to differ is %d", len(us), b, len(got), err, i)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var h streamHead
	frames := appendBatchFrame(nil, &h, 1, 2, 3, 4, []p2p.Update{{Doc: 1, Delta: 2}})
	f.Add(appendBatchFrame(frames, &h, 1, 2, 4, 4, wire8Frame())) // a length of one byte, then of two
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f, frameBatchEpoch}) // a length in five bytes
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, frameBatchEpoch})       // a length past maxFrameBytes
	f.Add([]byte{0x80, 0, frameCredit, 1})                       // an overlong length
	f.Add([]byte{5, frameCredit, 1, 2})                          // a payload shorter than its length
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
