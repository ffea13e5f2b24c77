package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerLawSupport(t *testing.T) {
	p := NewPowerLaw(1, 50, 2.1)
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := p.Draw(r)
		if v < 1 || v > 50 {
			t.Fatalf("draw %d outside [1,50]", v)
		}
	}
}

func TestPowerLawShape(t *testing.T) {
	// With alpha=2, P(1)/P(2) = 4. Check empirical ratio.
	p := NewPowerLaw(1, 100, 2.0)
	r := New(2)
	counts := map[int]int{}
	const n = 400000
	for i := 0; i < n; i++ {
		counts[p.Draw(r)]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if math.Abs(ratio-4) > 0.3 {
		t.Fatalf("P(1)/P(2) = %v, want ~4", ratio)
	}
	if counts[1] < counts[2] || counts[2] < counts[4] || counts[4] < counts[16] {
		t.Fatal("power-law counts are not decreasing in k")
	}
}

func TestPowerLawMean(t *testing.T) {
	p := NewPowerLaw(1, 1000, 2.1)
	analytic := p.Mean()
	r := New(3)
	sum := 0.0
	const n = 500000
	for i := 0; i < n; i++ {
		sum += float64(p.Draw(r))
	}
	empirical := sum / n
	if math.Abs(empirical-analytic)/analytic > 0.05 {
		t.Fatalf("empirical mean %v vs analytic %v", empirical, analytic)
	}
}

func TestPowerLawDegenerate(t *testing.T) {
	p := NewPowerLaw(3, 3, 2.4)
	r := New(4)
	for i := 0; i < 100; i++ {
		if v := p.Draw(r); v != 3 {
			t.Fatalf("single-point support drew %d", v)
		}
	}
	if m := p.Mean(); math.Abs(m-3) > 1e-12 {
		t.Fatalf("Mean of point mass = %v", m)
	}
}

func TestPowerLawPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPowerLaw(0, 5, 2) },
		func() { NewPowerLaw(5, 4, 2) },
		func() { NewPowerLaw(1, 5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestZipfTopRankDominates(t *testing.T) {
	const ranks = 1880
	z := NewZipf(ranks, 1.0)
	r := New(5)
	counts := make([]int, ranks+1)
	for i := 0; i < 300000; i++ {
		counts[z.Draw(r)]++
	}
	if counts[1] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("Zipf counts not decreasing: c1=%d c10=%d c100=%d",
			counts[1], counts[10], counts[100])
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	a := NewAlias(w)
	r := New(6)
	counts := make([]float64, len(w))
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Draw(r)]++
	}
	for i, wi := range w {
		want := wi / 10 * n
		if math.Abs(counts[i]-want)/want > 0.05 {
			t.Fatalf("weight %d: drawn %v, want ~%v", i, counts[i], want)
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a := NewAlias([]float64{0, 1, 0, 1})
	r := New(7)
	for i := 0; i < 10000; i++ {
		if v := a.Draw(r); v == 0 || v == 2 {
			t.Fatalf("drew zero-weight index %d", v)
		}
	}
}

func TestAliasSingleton(t *testing.T) {
	a := NewAlias([]float64{5})
	r := New(8)
	for i := 0; i < 100; i++ {
		if a.Draw(r) != 0 {
			t.Fatal("singleton alias drew non-zero index")
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%v) did not panic", w)
				}
			}()
			NewAlias(w)
		}()
	}
}

// Property: alias table draws are always valid indices, for any random
// positive weight vector.
func TestAliasProperty(t *testing.T) {
	r := New(9)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		total := 0.0
		for i, b := range raw {
			w[i] = float64(b)
			total += w[i]
		}
		if total == 0 {
			return true
		}
		a := NewAlias(w)
		for i := 0; i < 50; i++ {
			v := a.Draw(r)
			if v < 0 || v >= len(w) || w[v] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPowerLawDraw(b *testing.B) {
	p := NewPowerLaw(1, 1000, 2.1)
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Draw(r)
	}
}

func BenchmarkAliasDraw(b *testing.B) {
	w := make([]float64, 10000)
	for i := range w {
		w[i] = float64(i + 1)
	}
	a := NewAlias(w)
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Draw(r)
	}
}
