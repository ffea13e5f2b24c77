package p2p

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dpr/internal/graph"
)

// FuzzDecodeRows: the row codec under every snapshot format. Whatever it
// is fed, DecodeRows must not panic, must size nothing the bytes it
// consumed could not hold, and must return the rest of its input
// untouched; what it accepts re-encodes to a fixed point with its rows in
// the same order and every value's bits intact.
func FuzzDecodeRows(f *testing.F) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001) // a NaN with a payload
	seeds := []struct {
		docs []graph.NodeID
		cols [][]float64
	}{
		{nil, nil},
		{[]graph.NodeID{0, 1, 2, 5}, nil},
		{[]graph.NodeID{0, math.MaxInt32, -1, math.MinInt32}, [][]float64{{nan, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Inf(1)}}},
		{[]graph.NodeID{9, 4, 4, 1}, [][]float64{{0.15, 1, math.Inf(-1), 2}, {0, -0.5, 1e-300, nan}, {0.15, 0.9, 3, 4}}},
	}
	for _, s := range seeds {
		f.Add(EncodeRows(nil, s.docs, s.cols...), uint8(len(s.cols)))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 2, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(1)) // a count no payload could hold
	f.Add(append(EncodeRows(nil, []graph.NodeID{3}, []float64{1}), 7, 7), uint8(1))  // bytes after the list
	f.Fuzz(func(t *testing.T, b []byte, ncols uint8) {
		nc := int(ncols % 4)
		docs, cols, rest, err := DecodeRows(b, nc)
		if err != nil {
			return
		}
		used := len(b) - len(rest)
		if len(cols) != nc || len(docs)*(1+8*nc) > used || !bytes.Equal(b[used:], rest) {
			t.Fatalf("%d rows of %d columns out of %d bytes, %d left", len(docs), len(cols), len(b), len(rest))
		}
		again := EncodeRows(nil, docs, cols...)
		docs2, cols2, rest2, err := DecodeRows(again, nc)
		if err != nil || len(rest2) != 0 || !slices.Equal(docs, docs2) {
			t.Fatalf("re-encoded rows: %v, %d bytes left, documents %v then %v", err, len(rest2), docs, docs2)
		}
		for c := range cols {
			if len(cols[c]) != len(docs) {
				t.Fatalf("column %d has %d values for %d rows", c, len(cols[c]), len(docs))
			}
			for i := range cols[c] {
				if math.Float64bits(cols[c][i]) != math.Float64bits(cols2[c][i]) {
					t.Fatalf("row %d column %d: %x became %x", i, c, math.Float64bits(cols[c][i]), math.Float64bits(cols2[c][i]))
				}
			}
		}
		if !bytes.Equal(EncodeRows(nil, docs2, cols2...), again) {
			t.Fatal("encode/decode/encode is not a fixed point")
		}
	})
}
