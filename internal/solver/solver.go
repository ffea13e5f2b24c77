// Package solver implements centralized pagerank solvers: the
// conventional synchronous power iteration the paper uses as its
// quality baseline R_c (section 4.3), a Gauss-Seidel variant, and
// quadratic extrapolation acceleration (the Kamvar-style method the
// paper's related-work section compares against).
//
// All solvers use the paper's formulation (Equation 1):
//
//	PR(i) = (1-d) + d * sum over in-links j of PR(j)/outdeg(j)
//
// This is the original "pagerank citation" scaling where every rank is
// at least 1-d and the ranks of an N-node graph sum to roughly N.
// Dangling documents (no out-links) simply emit no mass, matching the
// distributed algorithm where such documents send no update messages.
package solver

import (
	"fmt"
	"math"

	"dpr/internal/graph"
)

// DefaultDamping is the damping factor d used throughout the paper and
// by Google's original formulation.
const DefaultDamping = 0.85

// Config parameterizes a solver run.
type Config struct {
	Damping  float64 // 0 < d < 1; 0 means DefaultDamping
	MaxIters int     // hard iteration cap; 0 means 1000
	Tol      float64 // max relative per-component change to declare convergence; 0 means 1e-12

	// TrackHistory, when true, records the max relative change after
	// every iteration in Result.History (used by the quality-vs-pass
	// experiment of section 4.3).
	TrackHistory bool

	// Teleport personalizes the constant term: document i receives
	// (1-d) * N * Teleport[i] / sum(Teleport) instead of the uniform
	// (1-d). Nil means uniform.
	Teleport []float64
}

func (c Config) withDefaults() Config {
	if c.Damping == 0 {
		c.Damping = DefaultDamping
	}
	if c.MaxIters == 0 {
		c.MaxIters = 1000
	}
	if c.Tol == 0 {
		c.Tol = 1e-12
	}
	return c
}

func (c Config) validate() error {
	if c.Damping <= 0 || c.Damping >= 1 {
		return fmt.Errorf("solver: damping %v outside (0,1)", c.Damping)
	}
	if c.MaxIters < 1 {
		return fmt.Errorf("solver: MaxIters %d < 1", c.MaxIters)
	}
	if c.Tol <= 0 {
		return fmt.Errorf("solver: Tol %v <= 0", c.Tol)
	}
	if c.Teleport != nil {
		sum := 0.0
		for i, w := range c.Teleport {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("solver: Teleport[%d] = %v invalid", i, w)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("solver: Teleport weights sum to %v", sum)
		}
	}
	return nil
}

// baseVector returns the per-document constant term.
func (c Config) baseVector(n int) ([]float64, error) {
	base := make([]float64, n)
	if c.Teleport == nil {
		for i := range base {
			base[i] = 1 - c.Damping
		}
		return base, nil
	}
	if len(c.Teleport) != n {
		return nil, fmt.Errorf("solver: Teleport has %d weights for %d documents", len(c.Teleport), n)
	}
	sum := 0.0
	for _, w := range c.Teleport {
		sum += w
	}
	scale := (1 - c.Damping) * float64(n) / sum
	for i, w := range c.Teleport {
		base[i] = scale * w
	}
	return base, nil
}

// Result reports a solver run.
type Result struct {
	Ranks      []float64
	Iterations int
	Residual   float64 // final max relative per-component change
	Converged  bool
	History    []float64 // per-iteration residual when TrackHistory
}

// Power runs synchronous (Jacobi) power iteration until the maximum
// relative per-component change falls below Tol. This is the
// "conventional synchronous iterative solver" producing the paper's
// reference ranks R_c.
func Power(g *graph.Graph, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := g.NumNodes()
	base, err := cfg.baseVector(n)
	if err != nil {
		return Result{}, err
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1
	}
	res := Result{}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		pushPass(g, cfg.Damping, base, cur, next)
		res.Residual = maxRelChange(cur, next)
		cur, next = next, cur
		res.Iterations = iter
		if cfg.TrackHistory {
			res.History = append(res.History, res.Residual)
		}
		if res.Residual < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Ranks = cur
	return res, nil
}

// pushPass computes next = base + d*A^T cur using a push over the
// forward adjacency (cache-friendly, no transpose needed).
func pushPass(g *graph.Graph, d float64, base, cur, next []float64) {
	copy(next, base)
	for v := 0; v < g.NumNodes(); v++ {
		links := g.OutLinks(graph.NodeID(v))
		if len(links) == 0 {
			continue
		}
		share := d * cur[v] / float64(len(links))
		for _, t := range links {
			next[t] += share
		}
	}
}

func maxRelChange(old, new []float64) float64 { return MaxRelDiff(old, new) }

// MaxRelDiff returns the maximum per-component relative difference
// between a candidate rank vector and a reference, |got-ref|/|ref|
// (denominator floored at 1 for zero components). It is the shared
// convergence metric: the solvers' internal residual, the engine
// equivalence suite's agreement bound, and the race harness's
// distance-to-reference all use this one definition, so "reached the
// target" means the same thing for every engine.
func MaxRelDiff(got, ref []float64) float64 {
	max := 0.0
	for i := range got {
		denom := math.Abs(ref[i])
		if denom == 0 {
			denom = 1
		}
		if d := math.Abs(ref[i]-got[i]) / denom; d > max {
			max = d
		}
	}
	return max
}

// GaussSeidel runs in-place (Gauss-Seidel) iteration: updated ranks are
// visible to later documents within the same sweep. It typically needs
// noticeably fewer sweeps than Power on the same graph, which is the
// centralized analogue of why the paper's chaotic iteration converges
// quickly: fresh values propagate immediately.
func GaussSeidel(g *graph.Graph, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	g.Transpose()
	n := g.NumNodes()
	base, err := cfg.baseVector(n)
	if err != nil {
		return Result{}, err
	}
	ranks := make([]float64, n)
	outDeg := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1
		outDeg[i] = float64(g.OutDegree(graph.NodeID(i)))
	}
	res := Result{}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		worst := 0.0
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, s := range g.InLinks(graph.NodeID(v)) {
				sum += ranks[s] / outDeg[s]
			}
			updated := base[v] + cfg.Damping*sum
			denom := math.Abs(updated)
			if denom == 0 {
				denom = 1
			}
			if d := math.Abs(updated-ranks[v]) / denom; d > worst {
				worst = d
			}
			ranks[v] = updated
		}
		res.Residual = worst
		res.Iterations = iter
		if cfg.TrackHistory {
			res.History = append(res.History, worst)
		}
		if worst < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Ranks = ranks
	return res, nil
}
