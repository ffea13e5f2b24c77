package csr

import (
	"math/rand"
	"sync"
	"testing"

	"dpr/internal/graph"
)

// benchGraph is the seed-42 power-law workload at 2^18 documents,
// generated once for all three cursor benchmarks.
var benchGraph = sync.OnceValue(func() *Graph {
	g, _, err := Generate(graph.DefaultPowerLawConfig(1<<18, 42))
	if err != nil {
		panic(err)
	}
	return g
})

var benchSink int

// benchCursor times one Cursor.OutLinks call per iteration over the
// node sequence next yields; ns/op is nanoseconds per call.
func benchCursor(b *testing.B, next func(i int) graph.NodeID) {
	cur := benchGraph().NewCursor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(cur.OutLinks(next(i)))
	}
}

// BenchmarkCursorDenseSweep reads every node in ascending order: an
// early pass, where every document is over threshold.
func BenchmarkCursorDenseSweep(b *testing.B) {
	n := benchGraph().NumNodes()
	benchCursor(b, func(i int) graph.NodeID { return graph.NodeID(i % n) })
}

// BenchmarkCursorSparseSweep reads one node in eight, ascending: a late
// pass, where a block holds a few documents over threshold.
func BenchmarkCursorSparseSweep(b *testing.B) {
	n := benchGraph().NumNodes()
	benchCursor(b, func(i int) graph.NodeID { return graph.NodeID(i * 8 % n) })
}

// BenchmarkCursorRandomSeek reads nodes in random order: a ranker
// driver folding its inbox.
func BenchmarkCursorRandomSeek(b *testing.B) {
	n := benchGraph().NumNodes()
	r := rand.New(rand.NewSource(1))
	seq := make([]graph.NodeID, 1<<16)
	for i := range seq {
		seq[i] = graph.NodeID(r.Intn(n))
	}
	benchCursor(b, func(i int) graph.NodeID { return seq[i&(len(seq)-1)] })
}
