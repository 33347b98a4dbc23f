package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := newHistogram([]float64{0, 10, 100, 1000})
	for _, x := range []float64{-1, 0, 5, 10, 99, 100, 999, 1000, 5000} {
		h.Add(x)
	}
	if h.Under != 1 {
		t.Fatalf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Fatalf("Over = %d, want 2 (1000 is right-open)", h.Over)
	}
	// [0,10):{0,5}  [10,100):{10,99}  [100,1000):{100,999}
	want := []int64{2, 2, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("Counts = %v, want %v", h.Counts, want)
		}
	}
	if h.Total != 9 {
		t.Fatalf("Total = %d, want 9", h.Total)
	}
}

func TestHistogramPanicsOnBadEdges(t *testing.T) {
	for _, edges := range [][]float64{{1}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newHistogram(%v) did not panic", edges)
				}
			}()
			newHistogram(edges)
		}()
	}
}

func TestHistogramTotalProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h := newHistogram([]float64{0, 1, 2, 4, 8})
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		var binned int64
		for _, c := range h.Counts {
			binned += c
		}
		return h.Total == int64(n) && binned+h.Under+h.Over == h.Total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramAddEdgeCases pins Add's behaviour at exact bin edges and for
// the float special values: a value equal to an interior edge opens the bin
// to its right (bins are right-open), the first and last edges split
// Under/Over, NaN is dropped without counting, and the infinities land in
// Under/Over like any other out-of-range value.
func TestHistogramAddEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		x     float64
		bin   int // index into Counts, -1 = none
		under int64
		over  int64
		total int64
	}{
		{"below first edge", -0.5, -1, 1, 0, 1},
		{"exactly first edge", 0, 0, 0, 0, 1},
		{"interior value", 5, 0, 0, 0, 1},
		{"exactly interior edge", 10, 1, 0, 0, 1},
		{"just below interior edge", math.Nextafter(10, 0), 0, 0, 0, 1},
		{"exactly last edge", 20, -1, 0, 1, 1},
		{"above last edge", 25, -1, 0, 1, 1},
		{"NaN dropped", math.NaN(), -1, 0, 0, 0},
		{"+Inf overflows", math.Inf(1), -1, 0, 1, 1},
		{"-Inf underflows", math.Inf(-1), -1, 1, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHistogram([]float64{0, 10, 20})
			h.Add(c.x)
			if h.Total != c.total {
				t.Fatalf("Total = %d, want %d", h.Total, c.total)
			}
			if h.Under != c.under || h.Over != c.over {
				t.Fatalf("Under/Over = %d/%d, want %d/%d", h.Under, h.Over, c.under, c.over)
			}
			for i, n := range h.Counts {
				want := int64(0)
				if i == c.bin {
					want = 1
				}
				if n != want {
					t.Fatalf("Counts[%d] = %d, want %d", i, n, want)
				}
			}
		})
	}
}
