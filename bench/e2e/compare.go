package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// setupFloorS is the least change in setup_s that can be worse: a set-up
// change under a millisecond is within bounds however small the set-up is.
const setupFloorS = 0.001

// verdict judges metric b (the change) against a (the base) for a metric
// where better is "lower" or "higher": "worse" or "better" when the medians
// differ by more than bound, "within" otherwise, and "unresolved" when
// either side's quartile spread is wider than the bound — unless every
// sample of b beats every sample of a.
func verdict(a, b stats, better string, bound, floor float64) string {
	if a.Median == 0 {
		if b.Median == 0 {
			return "within"
		}
		return "unresolved"
	}
	change := (b.Median - a.Median) / math.Abs(a.Median)
	if better == "higher" {
		change = -change
	}
	if max(a.spread(), b.spread()) > bound {
		if separated(a.Samples, b.Samples, better) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > bound && math.Abs(b.Median-a.Median) > floor:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "within"
}

// separated reports whether every b sample is better than every a sample.
func separated(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compare prints one row per workload and end-to-end metric of two result
// files and reports whether any row is worse. A workload whose failed
// fraction rose is worse too.
func compare(w io.Writer, a, b result, bounds []bound) bool {
	anyWorse := false
	fmt.Fprintf(w, "%-18s %-14s %-9s %14s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "base", "change", "delta", "spread", "bound", "verdict")
	for _, wb := range b.Workloads {
		wa, ok := a.workload(wb.Name)
		if !ok {
			continue
		}
		v := "within"
		if wb.FailedFrac > wa.FailedFrac {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(w, "%-18s %-14s %-9s %14.4g %14.4g %8s %7s %6s  %s\n",
			wb.Name, "failed_frac", "ratio", wa.FailedFrac, wb.FailedFrac, "", "", "0", v)
		if wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, bd := range bounds {
			sa, okA := wa.EndToEnd.Metrics[bd.Name]
			sb, okB := wb.EndToEnd.Metrics[bd.Name]
			if !okA || !okB {
				continue
			}
			floor := 0.0
			if bd.Name == "setup_s" {
				floor = setupFloorS
			}
			v := verdict(sa, sb, bd.Better, bd.Bound, floor)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-18s %-14s %-9s %14.6g %14.6g %+7.2f%% %6.2f%% %5.0f%%  %s\n",
				wb.Name, bd.Name, bd.Unit, sa.Median, sb.Median,
				100*(sb.Median/sa.Median-1), 100*max(sa.spread(), sb.spread()), 100*bd.Bound, v)
		}
	}
	return anyWorse
}
