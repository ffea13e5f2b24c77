package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeneratePowerLawBasic(t *testing.T) {
	g, err := GeneratePowerLaw(DefaultPowerLawConfig(5000, 42))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 5000 {
		t.Fatalf("suspiciously few edges: %d", g.NumEdges())
	}
}

func TestGeneratePowerLawDeterministic(t *testing.T) {
	cfg := DefaultPowerLawConfig(2000, 7)
	a := MustGeneratePowerLaw(cfg)
	b := MustGeneratePowerLaw(cfg)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		la, lb := a.OutLinks(NodeID(v)), b.OutLinks(NodeID(v))
		if len(la) != len(lb) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("node %d link %d differs", v, i)
			}
		}
	}
	c := MustGeneratePowerLaw(DefaultPowerLawConfig(2000, 8))
	if c.NumEdges() == a.NumEdges() {
		// Equal counts are possible but all-equal adjacency is not.
		same := true
		for v := 0; v < a.NumNodes() && same; v++ {
			la, lc := a.OutLinks(NodeID(v)), c.OutLinks(NodeID(v))
			if len(la) != len(lc) {
				same = false
				break
			}
			for i := range la {
				if la[i] != lc[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestGeneratePowerLawExponents(t *testing.T) {
	g := MustGeneratePowerLaw(DefaultPowerLawConfig(30000, 13))
	s := ComputeStats(g)
	// The ML fit on bounded-support samples is biased, so accept a
	// generous band around the configured exponents (out 2.4, in 2.1).
	if s.OutExponent < 1.8 || s.OutExponent > 3.2 {
		t.Fatalf("fitted out-exponent %.2f implausible for target 2.4", s.OutExponent)
	}
	if math.IsNaN(s.InExponent) {
		t.Fatal("in-exponent fit failed")
	}
	// Out-degree drawn exactly: no dangling nodes when support starts at 1.
	if s.Dangling != 0 {
		t.Fatalf("%d dangling nodes from exact out-degree draws", s.Dangling)
	}
	// Heavier tail in-degree: the max in-degree should comfortably
	// exceed the max out-degree cap consequences aside, the in side is
	// preferential so hubs form.
	if s.MaxInDegree < 20 {
		t.Fatalf("no in-degree hubs formed: max=%d", s.MaxInDegree)
	}
}

func TestGeneratePowerLawErrors(t *testing.T) {
	cases := []PowerLawConfig{
		{Nodes: 1, OutExponent: 2.4, InExponent: 2.1},
		{Nodes: 100, OutExponent: 0.5, InExponent: 2.1},
		{Nodes: 100, OutExponent: 2.4, InExponent: 1.0},
		{Nodes: 100, OutExponent: 2.4, InExponent: 2.1, MaxDegree: 100},
	}
	for i, cfg := range cases {
		if _, err := GeneratePowerLaw(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestStatsOnFixtures(t *testing.T) {
	s := ComputeStats(Cycle(10))
	if s.Nodes != 10 || s.Edges != 10 || s.Dangling != 0 || s.Sources != 0 {
		t.Fatalf("cycle stats: %+v", s)
	}
	if s.AvgOutDegree != 1 {
		t.Fatalf("cycle avg out = %v", s.AvgOutDegree)
	}
	star := ComputeStats(Star(11))
	if star.MaxInDegree != 10 || star.LargestInHub != 0 {
		t.Fatalf("star stats: %+v", star)
	}
	if star.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	s := ComputeStats(NewBuilder(0).Build())
	if s.Nodes != 0 || s.Edges != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func BenchmarkGeneratePowerLaw10k(b *testing.B) {
	cfg := DefaultPowerLawConfig(10000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GeneratePowerLaw(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranspose10k(b *testing.B) {
	g := MustGeneratePowerLaw(DefaultPowerLawConfig(10000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gc := &Graph{n: g.n, outStart: g.outStart, outAdj: g.outAdj}
		gc.Transpose()
	}
}

// Property: the generator always produces a structurally valid graph
// with exact out-degrees in range, for any seed and plausible size.
func TestGeneratorValidityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 50 + int(seed%500)
		g, err := GeneratePowerLaw(DefaultPowerLawConfig(n, seed))
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		maxDeg := n - 1
		if maxDeg > 1000 {
			maxDeg = 1000
		}
		for v := 0; v < n; v++ {
			d := g.OutDegree(NodeID(v))
			if d < 0 || d > maxDeg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
