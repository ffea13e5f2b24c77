package solver

import (
	"math"
	"testing"
	"testing/quick"

	"dpr/internal/graph"
	"dpr/internal/rng"
)

const damping = DefaultDamping

// uniformRank is the analytic pagerank of any graph where every node
// has identical in/out structure (cycle, complete graph): the fixed
// point of r = (1-d) + d*r, i.e. exactly 1.
const uniformRank = 1.0

func TestPowerOnCycle(t *testing.T) {
	g := graph.Cycle(10)
	res, err := Power(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for i, r := range res.Ranks {
		if math.Abs(r-uniformRank) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want 1", i, r)
		}
	}
}

func TestPowerOnComplete(t *testing.T) {
	g := graph.Complete(6)
	res, err := Power(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Ranks {
		if math.Abs(r-uniformRank) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want 1", i, r)
		}
	}
}

func TestPowerStarHubDominates(t *testing.T) {
	g := graph.Star(11)
	res, err := Power(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hub := res.Ranks[0]
	for i := 1; i < 11; i++ {
		if res.Ranks[i] >= hub {
			t.Fatalf("leaf %d rank %v >= hub %v", i, res.Ranks[i], hub)
		}
	}
	// Analytic solution: leaf = (1-d) + d*hub/10, hub = (1-d) + 10*d*leaf.
	// Solving: hub = (1+10d)/(1+d), leaf = (1+d/10)/(1+d).
	d := damping
	wantHub := (1 + 10*d) / (1 + d)
	wantLeaf := (1 + d/10) / (1 + d)
	if math.Abs(hub-wantHub) > 1e-6 {
		t.Fatalf("hub = %v, want %v", hub, wantHub)
	}
	if math.Abs(res.Ranks[3]-wantLeaf) > 1e-6 {
		t.Fatalf("leaf = %v, want %v", res.Ranks[3], wantLeaf)
	}
}

func TestPowerTwoNodeChain(t *testing.T) {
	// 0 -> 1, nothing else. rank0 = 1-d; rank1 = (1-d) + d*(1-d).
	g := graph.FromAdjacency([][]graph.NodeID{{1}, {}})
	res, err := Power(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := damping
	if math.Abs(res.Ranks[0]-(1-d)) > 1e-9 {
		t.Fatalf("rank0 = %v, want %v", res.Ranks[0], 1-d)
	}
	want1 := (1 - d) + d*(1-d)
	if math.Abs(res.Ranks[1]-want1) > 1e-9 {
		t.Fatalf("rank1 = %v, want %v", res.Ranks[1], want1)
	}
}

func TestPowerRankLowerBound(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(2000, 5))
	res, err := Power(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Ranks {
		if r < 1-damping-1e-12 {
			t.Fatalf("rank[%d] = %v below lower bound %v", i, r, 1-damping)
		}
	}
}

func TestPowerHistoryDecreases(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 6))
	res, err := Power(g, Config{TrackHistory: true, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Iterations {
		t.Fatalf("history length %d != iterations %d", len(res.History), res.Iterations)
	}
	// Residuals should decay overall (geometric with ratio ~d).
	if res.History[len(res.History)-1] > res.History[0] {
		t.Fatal("residuals did not decrease")
	}
}

func TestGaussSeidelMatchesPower(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1500, 7))
	p, err := Power(g, Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := GaussSeidel(g, Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if !gs.Converged {
		t.Fatal("Gauss-Seidel did not converge")
	}
	for i := range p.Ranks {
		if math.Abs(p.Ranks[i]-gs.Ranks[i]) > 1e-6 {
			t.Fatalf("rank[%d]: power %v vs gauss-seidel %v", i, p.Ranks[i], gs.Ranks[i])
		}
	}
	if gs.Iterations > p.Iterations {
		t.Errorf("Gauss-Seidel took %d iterations, power %d; expected GS <= power",
			gs.Iterations, p.Iterations)
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Cycle(3)
	bad := []Config{
		{Damping: 1.5},
		{Damping: -0.1},
		{Damping: 0.85, MaxIters: -1},
		{Damping: 0.85, Tol: -1},
	}
	for i, cfg := range bad {
		if _, err := Power(g, cfg); err == nil {
			t.Errorf("case %d: Power accepted invalid config %+v", i, cfg)
		}
		if _, err := GaussSeidel(g, cfg); err == nil {
			t.Errorf("case %d: GaussSeidel accepted invalid config %+v", i, cfg)
		}
	}
}

func TestPowerMaxItersRespected(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 9))
	res, err := Power(g, Config{MaxIters: 3, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 3 {
		t.Fatalf("converged=%v iterations=%d, want false/3", res.Converged, res.Iterations)
	}
}

// Property: pagerank of a uniform out-degree random graph sums to
// approximately N (mass conservation up to the (1-d) source and d-fold
// recirculation; with no dangling nodes the sum is exactly N at the
// fixed point).
func TestRankSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(100)
		deg := 1 + r.Intn(4)
		if deg >= n {
			deg = n - 1
		}
		g := graph.Random(n, deg, seed)
		res, err := Power(g, Config{Tol: 1e-12})
		if err != nil || !res.Converged {
			return false
		}
		sum := 0.0
		for _, v := range res.Ranks {
			sum += v
		}
		return math.Abs(sum-float64(n)) < 1e-6*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPower10k(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 1))
	cfg := Config{Tol: 1e-10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Power(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGaussSeidel10k(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 1))
	g.Transpose()
	cfg := Config{Tol: 1e-10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GaussSeidel(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTeleportValidationAndClosedForm(t *testing.T) {
	g := graph.Cycle(4)
	bad := []Config{
		{Teleport: []float64{1, -1, 1, 1}},
		{Teleport: []float64{0, 0, 0, 0}},
		{Teleport: []float64{math.Inf(1), 1, 1, 1}},
	}
	for i, cfg := range bad {
		if _, err := Power(g, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Wrong-length teleport is rejected at solve time.
	if _, err := Power(g, Config{Teleport: []float64{1, 2}}); err == nil {
		t.Error("accepted short teleport")
	}
	// Closed form: chain 0 -> 1, teleport all on 0:
	// base0 = (1-d)*2, base1 = 0; r0 = base0, r1 = d*r0.
	chain := graph.FromAdjacency([][]graph.NodeID{{1}, {}})
	res, err := Power(chain, Config{Tol: 1e-13, Teleport: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultDamping
	if math.Abs(res.Ranks[0]-2*(1-d)) > 1e-9 {
		t.Fatalf("rank0 = %v, want %v", res.Ranks[0], 2*(1-d))
	}
	if math.Abs(res.Ranks[1]-2*d*(1-d)) > 1e-9 {
		t.Fatalf("rank1 = %v, want %v", res.Ranks[1], 2*d*(1-d))
	}
	// Gauss-Seidel agrees with power under teleport.
	gs, err := GaussSeidel(chain, Config{Tol: 1e-13, Teleport: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs.Ranks {
		if math.Abs(gs.Ranks[i]-res.Ranks[i]) > 1e-9 {
			t.Fatalf("GS teleport mismatch at %d", i)
		}
	}
}
