package graph

import (
	"testing"
	"testing/quick"

	"dpr/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if got := g.OutLinks(0); len(got) != 2 {
		t.Fatalf("OutLinks(0) = %v", got)
	}
	if g.OutDegree(2) != 0 {
		t.Fatalf("OutDegree(2) = %d", g.OutDegree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDropsDuplicatesAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1) // self-loop, ignored
	b.AddEdge(2, 0)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
	if g.OutDegree(1) != 0 {
		t.Fatal("self-loop survived")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	g1 := b.Build()
	g2 := b.Build() // edge list reset, so empty
	if g1.NumEdges() != 1 || g2.NumEdges() != 0 {
		t.Fatalf("reuse broken: %d, %d", g1.NumEdges(), g2.NumEdges())
	}
}

func TestTranspose(t *testing.T) {
	g := FromAdjacency([][]NodeID{{1, 2}, {2}, {0}})
	if g.inStart != nil {
		t.Fatal("transpose built eagerly")
	}
	if d := g.InDegree(2); d != 2 {
		t.Fatalf("InDegree(2) = %d, want 2", d)
	}
	if g.inStart == nil {
		t.Fatal("transpose not cached")
	}
	in := g.InLinks(2)
	seen := map[NodeID]bool{}
	for _, v := range in {
		seen[v] = true
	}
	if !seen[0] || !seen[1] || len(in) != 2 {
		t.Fatalf("InLinks(2) = %v", in)
	}
}

func TestTransposePreservesEdgeCount(t *testing.T) {
	g := Random(200, 5, 1)
	g.Transpose()
	var inTotal int64
	for v := 0; v < g.NumNodes(); v++ {
		inTotal += int64(g.InDegree(NodeID(v)))
	}
	if inTotal != g.NumEdges() {
		t.Fatalf("in-degree sum %d != edges %d", inTotal, g.NumEdges())
	}
}

// Property: for random adjacency lists, every forward edge appears in
// the transpose and vice versa.
func TestTransposeRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		b := NewBuilder(n)
		edges := r.Intn(4 * n)
		for i := 0; i < edges; i++ {
			b.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
		}
		g := b.Build()
		g.Transpose()
		// forward -> backward
		for v := 0; v < n; v++ {
			for _, tgt := range g.OutLinks(NodeID(v)) {
				found := false
				for _, src := range g.InLinks(tgt) {
					if src == NodeID(v) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		// edge counts agree
		var inTotal int64
		for v := 0; v < n; v++ {
			inTotal += int64(g.InDegree(NodeID(v)))
		}
		return inTotal == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := FromAdjacency([][]NodeID{{1}, {0}})
	g.outAdj[0] = 99 // out of range
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range target")
	}
	g2 := FromAdjacency([][]NodeID{{1}, {0}})
	g2.outAdj[0] = 0 // self-loop at node 0
	if err := g2.Validate(); err == nil {
		t.Fatal("Validate accepted self-loop")
	}
}

func TestFixtureGraphs(t *testing.T) {
	c := Cycle(5)
	if c.NumEdges() != 5 {
		t.Fatalf("Cycle(5) edges = %d", c.NumEdges())
	}
	for v := 0; v < 5; v++ {
		if c.OutDegree(NodeID(v)) != 1 {
			t.Fatalf("cycle node %d out-degree != 1", v)
		}
	}
	k := Complete(4)
	if k.NumEdges() != 12 {
		t.Fatalf("Complete(4) edges = %d", k.NumEdges())
	}
	s := Star(6)
	if s.OutDegree(0) != 5 || s.InDegree(0) != 5 {
		t.Fatalf("Star hub degrees: out=%d in=%d", s.OutDegree(0), s.InDegree(0))
	}
	r := Random(50, 3, 7)
	for v := 0; v < 50; v++ {
		if r.OutDegree(NodeID(v)) != 3 {
			t.Fatalf("Random node %d out-degree = %d, want 3", v, r.OutDegree(NodeID(v)))
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}
