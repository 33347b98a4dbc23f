package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := func(med float64) stats {
		return summarize("s", []float64{med * 0.99, med, med, med * 1.01})
	}
	cases := []struct {
		name   string
		a, b   stats
		better string
		bound  float64
		floor  float64
		want   string
	}{
		{"unchanged", tight(1), tight(1), "lower", 0.10, 0, "within"},
		{"slower inside the bound", tight(1), tight(1.08), "lower", 0.10, 0, "within"},
		{"slower past the bound", tight(1), tight(1.15), "lower", 0.10, 0, "worse"},
		{"faster past the bound", tight(1), tight(0.85), "lower", 0.10, 0, "better"},
		{"higher-is-better drop", tight(100), tight(85), "higher", 0.10, 0, "worse"},
		{"higher-is-better rise", tight(100), tight(115), "higher", 0.10, 0, "better"},
		{"below the absolute floor", tight(0.002), tight(0.0029), "lower", 0.25, 0.001, "within"},
		{"above the absolute floor", tight(0.004), tight(0.0060), "lower", 0.25, 0.001, "worse"},
		{"spread wider than the bound",
			summarize("s", []float64{0.7, 1, 1.3, 1.6}), tight(1.5), "lower", 0.10, 0, "unresolved"},
		{"wide but fully separated improvement",
			summarize("s", []float64{2.0, 2.6, 3.0, 3.4}), tight(1), "lower", 0.10, 0, "better"},
		{"both zero", summarize("x", []float64{0, 0}), summarize("x", []float64{0, 0}), "lower", 0.02, 0, "within"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.better, c.bound, c.floor); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegressionsAndFailures(t *testing.T) {
	bounds := []bound{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}}
	mk := func(wall float64, failed float64) result {
		return result{Workloads: []workloadResult{{
			Name: "gtc-paper", FailedFrac: failed,
			EndToEnd: &endToEnd{Metrics: map[string]stats{
				"wall_s": summarize("s", []float64{wall, wall, wall}),
			}},
		}}}
	}
	var out bytes.Buffer
	if compare(&out, mk(1, 0), mk(1.05, 0), bounds) {
		t.Errorf("5%% slower flagged worse:\n%s", out.String())
	}
	if !compare(&out, mk(1, 0), mk(1.2, 0), bounds) {
		t.Errorf("20%% slower not flagged:\n%s", out.String())
	}
	if !compare(&out, mk(1, 0), mk(1, 0.5), bounds) {
		t.Errorf("rising failed_frac not flagged:\n%s", out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if pct, v := highPercentile(seq(100)); pct != 90 || v != 90 {
		t.Errorf("highPercentile(1..100) = p%v %v, want p90 90", pct, v)
	}
	if pct, _ := highPercentile(seq(20)); pct != 50 {
		t.Errorf("highPercentile over 20 samples = p%v, want p50", pct)
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestBenchmarkDefinitionMatchesHarness keeps BENCHMARK.json and the metrics
// the harness prints in step.
func TestBenchmarkDefinitionMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []bound                 `json:"end_to_end"`
		PerLayer  []bound                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	if len(def.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(def.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if d := def.EndToEnd[i]; d.Name != m.name || d.Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s (%s), harness %s (%s)", i, d.Name, d.Unit, m.name, m.unit)
		}
	}
	layer := layerMetricNames()
	if len(def.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(def.PerLayer), len(layer))
	}
	for i, name := range layer {
		if d := def.PerLayer[i]; d.Name != name || d.Unit != layerUnit(name) {
			t.Errorf("per_layer[%d] = %s (%s), harness %s (%s)", i, d.Name, d.Unit, name, layerUnit(name))
		}
	}
}
