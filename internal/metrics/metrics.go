// Package metrics provides the statistical summaries and table
// rendering used by the experiment harness: the relative-error
// distributions of the paper's Table 2 report, per-percentile maxima,
// and fixed-width text tables matching the paper's layout.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// ErrorSummary captures the distribution of per-document relative
// errors exactly as the paper's Table 2 reports it: "the maximum error
// for that percentage of pages" at 50/75/90/99/99.9 percent, the
// overall maximum, and the average.
type ErrorSummary struct {
	P50, P75, P90, P99, P999 float64
	Max                      float64
	Avg                      float64
	N                        int
}

// Summarize computes an ErrorSummary over values. It does not modify
// its argument. An empty input yields a zero summary.
func Summarize(values []float64) ErrorSummary {
	s := ErrorSummary{N: len(values)}
	if len(values) == 0 {
		return s
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Avg = sum / float64(len(sorted))
	s.Max = sorted[len(sorted)-1]
	s.P50 = Quantile(sorted, 0.50)
	s.P75 = Quantile(sorted, 0.75)
	s.P90 = Quantile(sorted, 0.90)
	s.P99 = Quantile(sorted, 0.99)
	s.P999 = Quantile(sorted, 0.999)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice using the nearest-rank method, matching the paper's "up to X%
// of the pages had error less than" reading. It panics if sorted is
// empty or q is outside [0, 1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("metrics: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: Quantile q=%v outside [0,1]", q))
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// RelativeErrors returns |got[i]-want[i]| / want[i] for every i.
// Entries where want is zero are reported as the absolute error (the
// paper's graphs never have zero true rank because of the (1-d)
// constant, but defensive handling keeps tooling robust).
func RelativeErrors(got, want []float64) []float64 {
	if len(got) != len(want) {
		panic(fmt.Sprintf("metrics: RelativeErrors length mismatch %d vs %d", len(got), len(want)))
	}
	out := make([]float64, len(got))
	for i := range got {
		diff := math.Abs(got[i] - want[i])
		if want[i] != 0 {
			out[i] = diff / math.Abs(want[i])
		} else {
			out[i] = diff
		}
	}
	return out
}

// Rows converts the summary into (label, value) pairs in the paper's
// Table 2 row order.
func (s ErrorSummary) Rows() []struct {
	Label string
	Value float64
} {
	return []struct {
		Label string
		Value float64
	}{
		{"50", s.P50}, {"75", s.P75}, {"90", s.P90},
		{"99", s.P99}, {"99.9", s.P999},
		{"Max.", s.Max}, {"Avg.", s.Avg},
	}
}
