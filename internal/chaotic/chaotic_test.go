package chaotic

import (
	"math"
	"testing"
	"testing/quick"

	"dpr/internal/graph"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

// gauss solves dense Ax=b by Gaussian elimination with partial
// pivoting (test oracle).
func gauss(t *testing.T, a []float64, b []float64) []float64 {
	t.Helper()
	n := len(b)
	m := make([]float64, len(a))
	copy(m, a)
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r*n+col]) > math.Abs(m[piv*n+col]) {
				piv = r
			}
		}
		if m[piv*n+col] == 0 {
			t.Fatal("singular test matrix")
		}
		if piv != col {
			for k := 0; k < n; k++ {
				m[piv*n+k], m[col*n+k] = m[col*n+k], m[piv*n+k]
			}
			x[piv], x[col] = x[col], x[piv]
		}
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] / m[col*n+col]
			for k := col; k < n; k++ {
				m[r*n+k] -= f * m[col*n+k]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		for k := r + 1; k < n; k++ {
			x[r] -= m[r*n+k] * x[k]
		}
		x[r] /= m[r*n+r]
	}
	return x
}

// randomDominant builds a strictly diagonally dominant system.
func randomDominant(r *rng.Rand, n int) ([]float64, []float64) {
	a := make([]float64, n*n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j && r.Float64() < 0.4 {
				v := r.Float64()*2 - 1
				a[i*n+j] = v
				rowSum += math.Abs(v)
			}
		}
		a[i*n+i] = rowSum + 1 + r.Float64() // strict dominance
		b[i] = r.Float64()*10 - 5
	}
	return a, b
}

func TestSolveSimple2x2(t *testing.T) {
	// x = c + Mx with M = [[0, .5], [.25, 0]], c = [1, 2].
	// Solution: x0 = 1 + .5 x1, x1 = 2 + .25 x0 => x0 = 16/7... solve:
	// x0 = 1 + .5(2 + .25 x0) = 2 + .125 x0 => x0 = 2/.875 = 16/7.
	sys, err := NewSystem([]float64{1, 2}, []Entry{
		{Row: 0, Col: 1, Coeff: 0.5},
		{Row: 1, Col: 0, Coeff: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Solve(Options{Eps: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	want0 := 16.0 / 7.0
	want1 := 2 + 0.25*want0
	if math.Abs(res.X[0]-want0) > 1e-9 || math.Abs(res.X[1]-want1) > 1e-9 {
		t.Fatalf("x = %v, want [%v %v]", res.X, want0, want1)
	}
}

func TestJacobiMatchesGauss(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(20)
		a, b := randomDominant(r, n)
		want := gauss(t, a, b)
		sys, err := FromJacobi(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if cs := sys.MaxColumnSum(); cs >= 1.0 {
			// Row dominance does not bound column sums; skip the
			// occasional non-contracting draw rather than rely on it.
			continue
		}
		res, err := sys.Solve(Options{Eps: 1e-13})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, res.X[i], want[i])
			}
		}
	}
}

func TestPagerankAsSpecialCase(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 3))
	d := 0.85
	n := g.NumNodes()
	c := make([]float64, n)
	for i := range c {
		c[i] = 1 - d
	}
	var entries []Entry
	for v := 0; v < n; v++ {
		links := g.OutLinks(graph.NodeID(v))
		if len(links) == 0 {
			continue
		}
		coeff := d / float64(len(links))
		for _, tgt := range links {
			entries = append(entries, Entry{Row: int(tgt), Col: v, Coeff: coeff})
		}
	}
	sys, err := NewSystem(c, entries)
	if err != nil {
		t.Fatal(err)
	}
	if cs := sys.MaxColumnSum(); cs > d+1e-12 {
		t.Fatalf("pagerank column sum %v > d", cs)
	}
	res, err := sys.Solve(Options{Eps: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solver.Power(g, solver.Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-ref.Ranks[i]) > 1e-7 {
			t.Fatalf("x[%d] = %v, pagerank %v", i, res.X[i], ref.Ranks[i])
		}
	}
}

func TestSolveDivergentSystemErrors(t *testing.T) {
	// M with spectral radius > 1 must hit the step cap, not spin.
	sys, err := NewSystem([]float64{1, 1}, []Entry{
		{Row: 0, Col: 1, Coeff: 1.2},
		{Row: 1, Col: 0, Coeff: 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solve(Options{Eps: 1e-9, MaxSteps: 5000}); err == nil {
		t.Fatal("divergent system converged")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, nil); err == nil {
		t.Error("accepted empty system")
	}
	if _, err := NewSystem([]float64{1}, []Entry{{Row: 5, Col: 0, Coeff: 1}}); err == nil {
		t.Error("accepted out-of-range row")
	}
	if _, err := NewSystem([]float64{1}, []Entry{{Row: 0, Col: 0, Coeff: math.NaN()}}); err == nil {
		t.Error("accepted NaN coefficient")
	}
	if _, err := FromJacobi([]float64{0}, []float64{1}); err == nil {
		t.Error("accepted zero diagonal")
	}
	if _, err := FromJacobi([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("accepted non-square matrix")
	}
}

func TestDuplicateEntriesMerged(t *testing.T) {
	sys, err := NewSystem([]float64{1, 0}, []Entry{
		{Row: 1, Col: 0, Coeff: 0.2},
		{Row: 1, Col: 0, Coeff: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Solve(Options{Eps: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	// x1 = 0 + (0.2+0.3)*x0 = 0.5.
	if math.Abs(res.X[1]-0.5) > 1e-12 {
		t.Fatalf("merged coefficient wrong: x1 = %v", res.X[1])
	}
}

// Property: for random contracting diagonal systems the solver matches
// the closed form x_i = c_i / (1 - m_i) when M is diagonal.
func TestDiagonalClosedFormProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		c := make([]float64, n)
		entries := make([]Entry, n)
		for i := 0; i < n; i++ {
			c[i] = r.Float64()*4 - 2
			entries[i] = Entry{Row: i, Col: i, Coeff: r.Float64() * 0.9}
		}
		sys, err := NewSystem(c, entries)
		if err != nil {
			return false
		}
		res, err := sys.Solve(Options{Eps: 1e-13})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want := c[i] / (1 - entries[i].Coeff)
			if math.Abs(res.X[i]-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveSequential(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(2000, 1))
	d := 0.85
	n := g.NumNodes()
	c := make([]float64, n)
	for i := range c {
		c[i] = 1 - d
	}
	var entries []Entry
	for v := 0; v < n; v++ {
		links := g.OutLinks(graph.NodeID(v))
		if len(links) == 0 {
			continue
		}
		coeff := d / float64(len(links))
		for _, tgt := range links {
			entries = append(entries, Entry{Row: int(tgt), Col: v, Coeff: coeff})
		}
	}
	sys, err := NewSystem(c, entries)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Solve(Options{Eps: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}
