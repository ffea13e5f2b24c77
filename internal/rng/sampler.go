package rng

import (
	"math"
	"sort"
)

// PowerLaw samples integers k in [min, max] with P(k) proportional to
// k^(-alpha). This is the degree distribution of the Broder et al. web
// graph model the paper adopts in section 4.1 (alpha = 2.1 for
// in-degree, 2.4 for out-degree).
//
// The sampler precomputes the CDF once and draws by binary search, so a
// draw is O(log(max-min)).
type PowerLaw struct {
	min int
	cdf []float64
}

// NewPowerLaw builds a sampler over [min, max] with exponent alpha > 0.
// It panics on an empty or invalid range.
func NewPowerLaw(min, max int, alpha float64) *PowerLaw {
	if min < 1 || max < min {
		panic("rng: NewPowerLaw invalid range")
	}
	if alpha <= 0 {
		panic("rng: NewPowerLaw alpha must be positive")
	}
	n := max - min + 1
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(min+i), -alpha)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &PowerLaw{min: min, cdf: cdf}
}

// Draw returns one sample.
func (p *PowerLaw) Draw(r *Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(p.cdf, u)
	if i >= len(p.cdf) {
		i = len(p.cdf) - 1
	}
	return p.min + i
}

// Mean returns the expectation of the distribution.
func (p *PowerLaw) Mean() float64 {
	m := 0.0
	prev := 0.0
	for i, c := range p.cdf {
		m += float64(p.min+i) * (c - prev)
		prev = c
	}
	return m
}

// Zipf samples ranks r in [1, n] with P(r) proportional to r^(-s).
// It is used by the corpus generator: term frequencies in natural text
// follow Zipf's law, which is what makes "top 100 most frequent terms"
// a meaningful query vocabulary in the paper's section 4.9.
type Zipf struct{ pl *PowerLaw }

// NewZipf builds a Zipf sampler over ranks 1..n with exponent s.
func NewZipf(n int, s float64) *Zipf {
	return &Zipf{pl: NewPowerLaw(1, n, s)}
}

// Draw returns a rank in [1, n].
func (z *Zipf) Draw(r *Rand) int { return z.pl.Draw(r) }

// Alias implements Walker/Vose alias sampling over arbitrary
// non-negative weights: O(n) setup, O(1) per draw. The graph generator
// uses it to pick link targets proportional to target in-degree weight.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table for the given weights. Weights must be
// non-negative with a positive sum; it panics otherwise.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("rng: NewAlias with no weights")
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: NewAlias negative or NaN weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("rng: NewAlias zero total weight")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1 // numerical leftovers
	}
	return a
}

// Draw returns an index with probability proportional to its weight.
func (a *Alias) Draw(r *Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
