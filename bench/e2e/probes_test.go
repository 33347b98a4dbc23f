package main

import (
	"math"
	"testing"
)

func TestEveryProbeRunsAtTinyScale(t *testing.T) {
	got, err := runProbes(0.002)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		ns, allocs := got[p.name], got[allocsName(p.name)]
		if math.IsNaN(ns) || math.IsInf(ns, 0) || math.IsNaN(allocs) || math.IsInf(allocs, 0) {
			t.Errorf("%s: ns/op %v, allocs/op %v; want finite", p.name, ns, allocs)
		}
		// The fold probes are differences of two replays and may read
		// below zero on a noisy host; every other probe times real work.
		if !isFold(p.name) && ns <= 0 {
			t.Errorf("%s: ns/op %v, want > 0", p.name, ns)
		}
	}
	if len(got) != 2*len(probes) {
		t.Errorf("%d probe metrics, want %d", len(got), 2*len(probes))
	}
}

func isFold(name string) bool {
	return name == "lineage.fold_ns" || name == "slo.fold_ns" || name == "drift.fold_ns"
}
