package solver

import (
	"math"
	"testing"

	"dpr/internal/graph"
)

func TestPowerQuadraticMatchesPower(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1500, 71))
	ref, err := Power(g, Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	qe, err := PowerQuadratic(g, ExtrapolationConfig{Config: Config{Tol: 1e-13}, Every: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !qe.Converged {
		t.Fatal("QE did not converge")
	}
	for i := range ref.Ranks {
		if math.Abs(ref.Ranks[i]-qe.Ranks[i]) > 1e-6 {
			t.Fatalf("rank[%d]: power %v vs QE %v", i, ref.Ranks[i], qe.Ranks[i])
		}
	}
}

// Extrapolating from x_{k-3..k} never costs iterations against plain
// power iteration, at the paper's damping or near 1 (DESIGN.md §4,
// decision 5).
func TestPowerQuadraticNoSlowerThanPower(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 6))
	for _, d := range []float64{0.85, 0.95} {
		cfg := Config{Damping: d, Tol: 1e-10}
		p, err := Power(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		qe, err := PowerQuadratic(g, ExtrapolationConfig{Config: cfg, Every: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Converged || !qe.Converged || qe.Iterations > p.Iterations {
			t.Fatalf("d = %v: quadratic %d iterations (converged %v), power %d (%v)", d, qe.Iterations, qe.Converged, p.Iterations, p.Converged)
		}
		t.Logf("d = %v: power %d, quadratic %d", d, p.Iterations, qe.Iterations)
	}
}

func TestPowerQuadraticOnCycle(t *testing.T) {
	res, err := PowerQuadratic(graph.Cycle(12), ExtrapolationConfig{Config: Config{Tol: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Ranks {
		if math.Abs(r-1) > 1e-8 {
			t.Fatalf("rank[%d] = %v", i, r)
		}
	}
}

func TestPowerQuadraticValidation(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := PowerQuadratic(g, ExtrapolationConfig{Config: Config{Damping: 2}}); err == nil {
		t.Fatal("accepted bad damping")
	}
	// Teleport flows through.
	tp := make([]float64, 4)
	tp[0] = 1
	res, err := PowerQuadratic(g, ExtrapolationConfig{Config: Config{Tol: 1e-12, Teleport: tp}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0] <= res.Ranks[2] {
		t.Fatal("teleport concentration had no effect")
	}
}

func TestQuadraticExtrapolateSafeguards(t *testing.T) {
	// Collinear history: extrapolation must be a no-op, not a crash.
	xk := []float64{1, 2}
	x0 := []float64{1, 2}
	x1 := []float64{1, 2}
	x2 := []float64{1, 2}
	quadraticExtrapolate(xk, x0, x1, x2)
	if xk[0] != 1 || xk[1] != 2 {
		t.Fatalf("degenerate extrapolation changed the iterate: %v", xk)
	}
}
