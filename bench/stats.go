package main

import "sort"

// summary is what the benchmark reports for a metric sampled once per
// repetition: the median is the headline, min/max/quartiles/n say how
// much to trust it.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// summarize computes the order statistics of xs (which it does not
// modify). Quartiles use the exclusive method of Python's
// statistics.quantiles(xs, n=4) — the one the benchmark driver applies
// across runs — so a spread computed here means the same thing there.
// With a single sample every statistic is that sample.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Min: s[0], Max: s[len(s)-1]}
	if len(s) == 1 {
		out.Q1, out.Median, out.Q3 = s[0], s[0], s[0]
		return out
	}
	out.Q1, out.Median, out.Q3 = quartile(s, 1), quartile(s, 2), quartile(s, 3)
	return out
}

// quartile returns the i-th of the three exclusive-method cut points
// of sorted (len >= 2).
func quartile(sorted []float64, i int) float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
}

// histQuantile estimates the q-quantile of a bucketed histogram with
// upper bounds (the last count is the overflow bucket), interpolating
// linearly inside the bucket that holds it; the overflow bucket
// reports the last finite bound.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}
