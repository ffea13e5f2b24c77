package p2p

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/rng"
)

// FuzzDocIndex checks the directory's find against a binary search of
// the column it indexes, over the shapes a shard's rows take: spread
// out, clustered, clustered with one far-off document, a single row,
// none. Every row is probed, with its neighbours, the ends of the
// document range and documents read from the input.
func FuzzDocIndex(f *testing.F) {
	f.Add(uint8(0), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Add(uint8(1), []byte{0, 0, 1, 0, 2, 3, 3, 0, 1, 1, 0, 2})
	f.Add(uint8(2), []byte{1, 2, 3, 0, 0, 1, 2, 255, 255})
	f.Add(uint8(3), []byte{7, 0, 0, 128})
	f.Add(uint8(4), []byte{})
	f.Fuzz(func(t *testing.T, shape uint8, b []byte) {
		var docs []graph.NodeID
		switch shape % 5 {
		case 0, 1, 2: // gaps of 1–256, or of 1–4 when clustered
			d := graph.NodeID(-1)
			for _, c := range b {
				if shape%5 != 0 {
					c %= 4
				}
				d += 1 + graph.NodeID(c)
				docs = append(docs, d)
			}
			if far := graph.NodeID(math.MaxInt32 - len(b)); shape%5 == 2 && far > d {
				docs = append(docs, far)
			}
		case 3:
			if len(b) >= 4 {
				docs = []graph.NodeID{graph.NodeID(binary.LittleEndian.Uint32(b) & math.MaxInt32)}
			}
		}
		x := newDocIndex(docs)
		if len(x.dir) > max(2, len(docs)/2) {
			t.Fatalf("%d rows: %d directory entries, want at most %d", len(docs), len(x.dir), max(2, len(docs)/2))
		}
		probe := func(d graph.NodeID) {
			want, ok := slices.BinarySearch(docs, d)
			if !ok {
				want = -1
			}
			if got := x.find(docs, d); got != int32(want) {
				t.Fatalf("find(%d) = %d over %d rows, want %d", d, got, len(docs), want)
			}
		}
		for _, d := range docs {
			probe(d - 1)
			probe(d)
			probe(d + 1)
		}
		for _, d := range []graph.NodeID{math.MinInt32, -1, 0, math.MaxInt32} {
			probe(d)
		}
		for ; len(b) >= 4; b = b[4:] {
			probe(graph.NodeID(binary.LittleEndian.Uint32(b)))
		}
	})
}

// randomShard is peer self's documents, ascending, when docs documents
// are placed at random on peers peers, as wire.NewCluster places them,
// with the placement.
func randomShard(docs, peers int, self PeerID) ([]PeerID, []graph.NodeID) {
	r := rng.New(42)
	docPeer := make([]PeerID, docs)
	var own []graph.NodeID
	for d := range docPeer {
		if docPeer[d] = PeerID(r.Intn(peers)); docPeer[d] == self {
			own = append(own, graph.NodeID(d))
		}
	}
	return docPeer, own
}

type indexShard struct {
	name string
	docs []graph.NodeID
}

// indexShards are the columns the directory is gated on: uniform,
// BenchmarkRankerBuild's shard (a wire-32 peer's), and skewed, a
// clustered range of a wire-8 peer's size with one far-off document,
// whose one bucket then holds every row but the last.
func indexShards() []indexShard {
	_, uniform := randomShard(500000, 32, 3)
	skewed := make([]graph.NodeID, 62500, 62501)
	for i := range skewed {
		skewed[i] = graph.NodeID(i)
	}
	return []indexShard{{"uniform", uniform}, {"skewed", append(skewed, 1<<30)}}
}

// TestDocIndexBytesPerRow: the directory costs at most 2 B a row on
// either shard.
func TestDocIndexBytesPerRow(t *testing.T) {
	for _, shard := range indexShards() {
		x := newDocIndex(shard.docs)
		if per := float64(binary.Size(x.dir)) / float64(len(shard.docs)); per > 2 {
			t.Errorf("%s: %d rows, %d directory entries: %.2f B a row, want at most 2", shard.name, len(shard.docs), len(x.dir), per)
		}
	}
}

// BenchmarkDocIndexFind is one lookup of a held document, in the sorted
// order a frame arrives in, on either shard; the skewed one's crowded
// bucket is binary-searched.
func BenchmarkDocIndexFind(b *testing.B) {
	for _, shard := range indexShards() {
		b.Run(shard.name, func(b *testing.B) {
			x, r := newDocIndex(shard.docs), rng.New(7)
			frame := make([]graph.NodeID, 4096)
			for i := range frame {
				frame[i] = shard.docs[r.Intn(len(shard.docs))]
			}
			slices.Sort(frame)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(frame) {
				for _, d := range frame {
					if x.find(shard.docs, d) < 0 {
						b.Fatalf("doc %d not found", d)
					}
				}
			}
		})
	}
}
