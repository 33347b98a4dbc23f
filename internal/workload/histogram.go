package workload

import (
	"math"
	"sort"
)

// histogram counts values into caller-defined right-open bins
// [edge[i], edge[i+1]). Values below the first edge or at/above the last
// edge land in Under/Over.
type histogram struct {
	Edges  []float64
	Counts []int64
	Under  int64
	Over   int64
	Total  int64
}

// newHistogram creates a histogram over the given ascending bin edges.
// At least two edges are required.
func newHistogram(edges []float64) *histogram {
	if len(edges) < 2 {
		panic("workload: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("workload: histogram edges must be strictly ascending")
		}
	}
	return &histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]int64, len(edges)-1),
	}
}

// Add counts one observation. NaN is dropped silently (it belongs to no bin
// and would otherwise corrupt the bin search); ±Inf count as Under/Over.
func (h *histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.Total++
	if x < h.Edges[0] {
		h.Under++
		return
	}
	if x >= h.Edges[len(h.Edges)-1] {
		h.Over++
		return
	}
	// Binary search for the bin.
	i := sort.SearchFloat64s(h.Edges, x)
	// SearchFloat64s returns the first index with edge >= x; x belongs to
	// the bin to the left unless it equals the edge exactly.
	if i < len(h.Edges) && h.Edges[i] == x {
		h.Counts[i]++
		return
	}
	h.Counts[i-1]++
}
