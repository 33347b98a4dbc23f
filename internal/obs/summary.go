package obs

import (
	"math"
	"sort"
)

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P95    float64
	Max    float64
	Sum    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   mean(xs),
		StdDev: stdDev(xs),
		Min:    minOf(xs),
		P50:    percentile(xs, 50),
		P95:    percentile(xs, 95),
		Max:    maxOf(xs),
		Sum:    sum(xs),
	}
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// stdDev returns the population standard deviation of xs.
func stdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// minOf returns the smallest element of xs, or 0 for an empty slice.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// maxOf returns the largest element of xs, or 0 for an empty slice.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
