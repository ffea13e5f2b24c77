package solver

import (
	"math"

	"dpr/internal/graph"
)

// ExtrapolationConfig extends Config with the acceleration cadence.
type ExtrapolationConfig struct {
	Config
	Every int // apply extrapolation every Every iterations; 0 means 10
}

// PowerQuadratic runs power iteration with periodic Quadratic
// Extrapolation (Kamvar, Haveliwala, Manning & Golub, WWW 2003 — the
// acceleration family the paper's related-work section contrasts the
// chaotic iteration with). Every Every-th iteration the last four
// iterates x_{k-3..k} estimate the two subdominant eigenvector
// directions and subtract them:
//
//	y_i = x_{k-3+i} - x_{k-3},  i = 1..3
//	solve min || [y1 y2] g + y3 ||  for g = (g1, g2)
//	b0 = g1 + g2 + 1,  b1 = g2 + 1,  b2 = 1
//	x* = b0*x_{k-2} + b1*x_{k-1} + b2*x_k  (then rescaled)
//
// The extrapolated vector is accepted only when finite and
// non-negative; otherwise the plain iterate continues (standard
// safeguard).
func PowerQuadratic(g *graph.Graph, cfg ExtrapolationConfig) (Result, error) {
	c := cfg.Config.withDefaults()
	if err := c.validate(); err != nil {
		return Result{}, err
	}
	every := cfg.Every
	if every == 0 {
		every = 10
	}
	if every < 4 {
		every = 4
	}
	n := g.NumNodes()
	base, err := c.baseVector(n)
	if err != nil {
		return Result{}, err
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	hist := [4][]float64{} // x_{k-3} .. x_k ring
	for i := range hist {
		hist[i] = make([]float64, n)
	}
	for i := range cur {
		cur[i] = 1
	}
	res := Result{}
	for iter := 1; iter <= c.MaxIters; iter++ {
		copy(hist[(iter-1)%4], cur)
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
		if iter >= 4 && iter%every == 0 {
			// hist[(j-1)%4] holds x_{j-1}, stored at iteration j.
			x0 := hist[(iter-3)%4] // x_{k-3}
			x1 := hist[(iter-2)%4]
			x2 := hist[(iter-1)%4]
			quadraticExtrapolate(cur, x0, x1, x2)
		}
	}
	res.Ranks = cur
	return res, nil
}

// quadraticExtrapolate overwrites xk with the QE estimate built from
// x0 = x_{k-3}, x1 = x_{k-2}, x2 = x_{k-1} and xk itself, when the
// estimate is usable.
func quadraticExtrapolate(xk, x0, x1, x2 []float64) {
	// Normal equations for the 2-column least squares.
	var a11, a12, a22, b1, b2 float64
	for i := range xk {
		y1 := x1[i] - x0[i]
		y2 := x2[i] - x0[i]
		y3 := xk[i] - x0[i]
		a11 += y1 * y1
		a12 += y1 * y2
		a22 += y2 * y2
		b1 += y1 * y3
		b2 += y2 * y3
	}
	det := a11*a22 - a12*a12
	if math.Abs(det) < 1e-30 {
		return // directions collinear; skip this round
	}
	g1 := (-b1*a22 + b2*a12) / det
	g2 := (-b2*a11 + b1*a12) / det
	b0c := g1 + g2 + 1
	b1c := g2 + 1
	const b2c = 1.0
	denom := b0c + b1c + b2c
	if math.Abs(denom) < 1e-12 {
		return
	}
	// Trial vector; keep only if physical.
	ok := true
	trial := make([]float64, len(xk))
	for i := range xk {
		v := (b0c*x1[i] + b1c*x2[i] + b2c*xk[i]) / denom
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			ok = false
			break
		}
		trial[i] = v
	}
	if ok {
		copy(xk, trial)
	}
}
