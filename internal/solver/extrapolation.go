package solver

import (
	"math"

	"dpr/internal/graph"
)

// ExtrapolationConfig extends Config with the acceleration cadence.
// Every Every-th iteration the solver applies component-wise Aitken
// delta-squared extrapolation using the last three iterates, the
// simplest member of the family of acceleration methods (Kamvar et
// al., WWW 2003) that the paper's related-work section compares the
// chaotic iteration against.
type ExtrapolationConfig struct {
	Config
	Every int // apply extrapolation every Every iterations; 0 means 10
}

// PowerAitken runs power iteration with periodic Aitken delta-squared
// extrapolation. Two safeguards keep the acceleration from hurting:
// component-wise, extrapolated values are kept only when finite and
// non-negative; and the extrapolated vector as a whole is adopted only
// if a trial power pass from it yields a smaller residual than the
// plain iterate's — graphs whose iterates are not yet in the smooth
// geometric regime (a documented failure mode of delta-squared) then
// simply continue un-accelerated. The trial pass is counted in
// Iterations whether or not it is accepted.
func PowerAitken(g *graph.Graph, cfg ExtrapolationConfig) (Result, error) {
	c := cfg.Config.withDefaults()
	if err := c.validate(); err != nil {
		return Result{}, err
	}
	every := cfg.Every
	if every == 0 {
		every = 10
	}
	if every < 3 {
		every = 3
	}
	n := g.NumNodes()
	base, err := c.baseVector(n)
	if err != nil {
		return Result{}, err
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	prev1 := make([]float64, n) // x_{k-1}
	prev2 := make([]float64, n) // x_{k-2}
	extr := make([]float64, n)  // extrapolation candidate
	for i := range cur {
		cur[i] = 1
	}
	res := Result{}
	for iter := 1; iter <= c.MaxIters; iter++ {
		copy(prev2, prev1)
		copy(prev1, cur)
		pushPass(g, c.Damping, base, cur, next)
		res.Residual = maxRelChange(cur, next)
		cur, next = next, cur
		res.Iterations = iter
		if c.TrackHistory {
			res.History = append(res.History, res.Residual)
		}
		if res.Residual < c.Tol {
			res.Converged = true
			break
		}
		if iter >= 3 && iter%every == 0 && iter < c.MaxIters {
			copy(extr, cur)
			aitken(extr, prev1, prev2)
			pushPass(g, c.Damping, base, extr, next)
			iter++
			res.Iterations = iter
			r := maxRelChange(extr, next)
			if r < res.Residual {
				// The accelerated iterate contracts faster: adopt it
				// along with the trial pass, keeping the three-term
				// history consistent.
				res.Residual = r
				copy(prev2, prev1)
				copy(prev1, extr)
				cur, next = next, cur
			}
			if c.TrackHistory {
				res.History = append(res.History, res.Residual)
			}
			if res.Residual < c.Tol {
				res.Converged = true
				break
			}
		}
	}
	res.Ranks = cur
	return res, nil
}

// aitken applies x' = x_k - (x_k - x_{k-1})^2 / (x_k - 2 x_{k-1} + x_{k-2})
// component-wise, in place on xk, with safeguards against tiny
// denominators and non-physical (negative/non-finite) results.
func aitken(xk, xk1, xk2 []float64) {
	for i := range xk {
		num := xk[i] - xk1[i]
		den := xk[i] - 2*xk1[i] + xk2[i]
		if math.Abs(den) < 1e-30 {
			continue
		}
		v := xk[i] - num*num/den
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			continue
		}
		xk[i] = v
	}
}
