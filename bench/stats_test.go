package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4),
// the method the benchmark driver uses across runs.
func TestSummarize(t *testing.T) {
	cases := []struct {
		xs   []float64
		want summary
	}{
		{nil, summary{}},
		{[]float64{7}, summary{N: 1, Min: 7, Q1: 7, Median: 7, Q3: 7, Max: 7}},
		{[]float64{2, 1}, summary{N: 2, Min: 1, Q1: 0.75, Median: 1.5, Q3: 2.25, Max: 2}},
		{[]float64{4.13, 4.63, 4.2}, summary{N: 3, Min: 4.13, Q1: 4.13, Median: 4.2, Q3: 4.63, Max: 4.63}},
		{[]float64{3, 1, 2, 4}, summary{N: 4, Min: 1, Q1: 1.25, Median: 2.5, Q3: 3.75, Max: 4}},
		{[]float64{5, 4, 3, 2, 1}, summary{N: 5, Min: 1, Q1: 1.5, Median: 3, Q3: 4.5, Max: 5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, summary{N: 10, Min: 10, Q1: 27.5, Median: 55, Q3: 82.5, Max: 100}},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		got := summarize(c.xs)
		if got.N != c.want.N {
			t.Errorf("summarize(%v).N = %d, want %d", in, got.N, c.want.N)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"Min", got.Min, c.want.Min}, {"Q1", got.Q1, c.want.Q1}, {"Median", got.Median, c.want.Median},
			{"Q3", got.Q3, c.want.Q3}, {"Max", got.Max, c.want.Max},
		} {
			if math.Abs(f.got-f.want) > 1e-12 {
				t.Errorf("summarize(%v).%s = %v, want %v", in, f.name, f.got, f.want)
			}
		}
		for i := range in {
			if c.xs[i] != in[i] {
				t.Errorf("summarize reordered its argument: %v -> %v", in, c.xs)
				break
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	for _, c := range []struct {
		counts  []uint64
		q, want float64
	}{
		{[]uint64{10, 0, 0, 0}, 0.5, 0.5},   // halfway through [0,1]
		{[]uint64{0, 10, 0, 0}, 0.5, 1.5},   // halfway through (1,2]
		{[]uint64{5, 5, 0, 0}, 0.75, 1.5},   // half of the second bucket
		{[]uint64{0, 0, 0, 10}, 0.5, 4},     // overflow reports the last bound
		{[]uint64{0, 0, 0, 0}, 0.5, 0},      // empty
		{[]uint64{1, 0, 0, 99}, 0.005, 0.5}, // first bucket holds the quantile
	} {
		if got := histQuantile(bounds, c.counts, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("histQuantile(%v, %v) = %v, want %v", c.counts, c.q, got, c.want)
		}
	}
}
