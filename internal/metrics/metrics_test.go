package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeSimple(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..1000
	}
	s := Summarize(vals)
	if s.N != 1000 {
		t.Fatalf("N = %d", s.N)
	}
	if s.P50 != 500 {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.P90 != 900 {
		t.Errorf("P90 = %v", s.P90)
	}
	if s.P99 != 990 {
		t.Errorf("P99 = %v", s.P99)
	}
	if s.P999 != 999 {
		t.Errorf("P999 = %v", s.P999)
	}
	if s.Max != 1000 {
		t.Errorf("Max = %v", s.Max)
	}
	if math.Abs(s.Avg-500.5) > 1e-9 {
		t.Errorf("Avg = %v", s.Avg)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Max != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	s := Summarize([]float64{3.5})
	if s.P50 != 3.5 || s.Max != 3.5 || s.Avg != 3.5 {
		t.Fatalf("single summary: %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	vals := []float64{5, 1, 3}
	Summarize(vals)
	if vals[0] != 5 || vals[1] != 1 || vals[2] != 3 {
		t.Fatalf("input mutated: %v", vals)
	}
}

func TestQuantileEdges(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if Quantile(sorted, 0) != 1 {
		t.Error("q=0 should be min")
	}
	if Quantile(sorted, 1) != 4 {
		t.Error("q=1 should be max")
	}
	if Quantile(sorted, 0.5) != 2 {
		t.Errorf("q=0.5 = %v", Quantile(sorted, 0.5))
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
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

// Property: percentiles are monotone and bounded by min/max.
func TestSummaryMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Abs(v))
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := Summarize(vals)
		sorted := make([]float64, len(vals))
		copy(sorted, vals)
		sort.Float64s(sorted)
		return s.P50 <= s.P75 && s.P75 <= s.P90 && s.P90 <= s.P99 &&
			s.P99 <= s.P999 && s.P999 <= s.Max &&
			s.Max == sorted[len(sorted)-1] &&
			s.P50 >= sorted[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeErrors(t *testing.T) {
	got := []float64{1.1, 2.0, 0.5}
	want := []float64{1.0, 2.0, 1.0}
	re := RelativeErrors(got, want)
	if math.Abs(re[0]-0.1) > 1e-12 || re[1] != 0 || math.Abs(re[2]-0.5) > 1e-12 {
		t.Fatalf("relative errors: %v", re)
	}
	// Zero denominator falls back to absolute.
	re2 := RelativeErrors([]float64{0.3}, []float64{0})
	if re2[0] != 0.3 {
		t.Fatalf("zero-denominator handling: %v", re2)
	}
}

func TestRelativeErrorsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RelativeErrors([]float64{1}, []float64{1, 2})
}

func TestRowsOrder(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	rows := s.Rows()
	if len(rows) != 7 || rows[0].Label != "50" || rows[5].Label != "Max." || rows[6].Label != "Avg." {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "a", "b")
	tab.AddRow("1", "22")
	tab.AddRow("333") // short row padded
	out := tab.String()
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"Demo", "a", "b", "333"} {
		if !contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCellFormats(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{5, "5"},
		{1234567, "1234567"},
		{0.25, "0.2500"},
		{0.0001, "1.00e-04"},
		{12.345, "12.35"},
	}
	for _, c := range cases {
		if got := Cell(c.in); got != c.want {
			t.Errorf("Cell(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := CellEps(0.2); got != "0.2" {
		t.Errorf("CellEps(0.2) = %q", got)
	}
	if got := CellEps(1e-4); got != "1e-04" {
		t.Errorf("CellEps(1e-4) = %q", got)
	}
	if got := CellInt(42); got != "42" {
		t.Errorf("CellInt = %q", got)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("Ignored title", "a", "b")
	tab.AddRow("1", "x,y")
	tab.AddRow(`say "hi"`, "2")
	got := tab.CSV()
	want := "a,b\n1,\"x,y\"\n\"say \"\"hi\"\"\",2\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}
