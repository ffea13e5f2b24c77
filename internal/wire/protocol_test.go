package wire

import (
	"bytes"
	"testing"

	"dpr/internal/p2p"
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

func TestBatchEpochCodecRejectsMalformed(t *testing.T) {
	good := encodeBatchEpoch(nil, 2, 3, 9, 1, []p2p.Update{{Doc: 1, Delta: 1}})
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
	}
	for name, b := range cases {
		if _, _, _, _, _, err := decodeBatchEpoch(b); err == nil {
			t.Errorf("%s: accepted %d bytes", name, len(b))
		}
	}
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2})
	f.Add(appendUpdates(nil, nil))
	f.Add(appendUpdates(nil, []p2p.Update{{Doc: 7, Delta: 0.5}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		us, err := decodeBatch(b)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the same bytes.
		if !bytes.Equal(appendUpdates(nil, us), b) {
			t.Fatalf("decode/encode not idempotent for %x", b)
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
