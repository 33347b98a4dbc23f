package obs

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := mean(xs); !almost(m, 5) {
		t.Fatalf("mean = %v, want 5", m)
	}
	if s := stdDev(xs); !almost(s, 2) {
		t.Fatalf("stdDev = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if mean(nil) != 0 || stdDev(nil) != 0 || minOf(nil) != 0 || maxOf(nil) != 0 || sum(nil) != 0 {
		t.Fatal("empty-slice helpers must return 0")
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("percentile(nil) must return 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5}, {62.5, 3.5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); !almost(got, c.want) {
			t.Fatalf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || !almost(s.Mean, 2.5) || !almost(s.Min, 1) || !almost(s.Max, 4) || !almost(s.Sum, 10) {
		t.Fatalf("Summary = %+v", s)
	}
	if !almost(s.P50, 2.5) {
		t.Fatalf("P50 = %v, want 2.5", s.P50)
	}
}

func TestPercentileWithinBoundsProperty(t *testing.T) {
	f := func(xs []float64, p float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100)
		v := percentile(clean, p)
		return v >= minOf(clean)-1e-9 && v <= maxOf(clean)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBetweenMinAndMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := mean(clean)
		return m >= minOf(clean)-1e-6 && m <= maxOf(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
