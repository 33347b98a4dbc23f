package slo

import (
	"math"
	"sort"
	"strings"
	"testing"

	"nvmcp/internal/obs"
)

func TestSeriesNamesSortedAndCopied(t *testing.T) {
	names := SeriesNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("series catalog not sorted: %v", names)
	}
	names[0] = "mutated"
	if SeriesNames()[0] == "mutated" {
		t.Fatal("SeriesNames returned the internal slice, not a copy")
	}
	for _, s := range SeriesNames() {
		if !knownSeries(s) {
			t.Fatalf("catalog entry %q not known to knownSeries", s)
		}
	}
	if knownSeries("no_such_series") {
		t.Fatal("knownSeries accepted an unknown name")
	}
}

func TestObjectiveViolatedThresholdItselfPasses(t *testing.T) {
	atMost := Objective{Direction: AtMost, Threshold: 10}
	if atMost.violated(10) {
		t.Fatal("at_most: the threshold value itself must pass")
	}
	if !atMost.violated(10.001) {
		t.Fatal("at_most: above threshold must violate")
	}
	atLeast := Objective{Direction: AtLeast, Threshold: 0.9}
	if atLeast.violated(0.9) {
		t.Fatal("at_least: the threshold value itself must pass")
	}
	if !atLeast.violated(0.899) {
		t.Fatal("at_least: below threshold must violate")
	}
}

func TestObjectiveDefaults(t *testing.T) {
	o := Objective{Name: "availability"}
	if got := o.SeriesName(); got != "availability" {
		t.Fatalf("SeriesName default = %q, want the objective name", got)
	}
	o.Series = "mttr_seconds"
	if got := o.SeriesName(); got != "mttr_seconds" {
		t.Fatalf("SeriesName = %q, want explicit series", got)
	}
	if o.horizon() != 1 {
		t.Fatalf("horizon default = %d, want 1", o.horizon())
	}
	o.Over = 4
	if o.horizon() != 4 {
		t.Fatalf("horizon = %d, want 4", o.horizon())
	}
}

// TestSpecWindowDefault: with or without a spec, the recorder judges
// obs.WindowWidth windows, the Figure 10 bucket.
func TestSpecWindowDefault(t *testing.T) {
	spec := &Spec{Objectives: []Objective{{Name: "availability", Direction: AtLeast, Threshold: 0.99}}}
	for _, s := range []*Spec{nil, spec} {
		r := New(Config{Enabled: true, Spec: s}, obs.NewRegistry())
		if got := r.Summary().WindowUS; got != obs.WindowWidth.Microseconds() {
			t.Fatalf("spec %v: window %dus, want %dus", s, got, obs.WindowWidth.Microseconds())
		}
	}
}

func TestSpecValidate(t *testing.T) {
	valid := func() *Spec {
		return &Spec{Objectives: []Objective{
			{Name: "availability", Direction: AtLeast, Threshold: 0.99},
			{Name: "peak", Series: "ckpt_window_bytes", Direction: AtMost, Threshold: 1e9, Final: true},
			{Name: "burn", Series: "availability", Direction: AtLeast, Threshold: 0.9, Over: 4, Tolerance: 0.5},
		}}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec must validate (no objectives declared): %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"no objectives", func(s *Spec) { s.Objectives = nil }, "no objectives"},
		{"unnamed", func(s *Spec) { s.Objectives[0].Name = "" }, "no name"},
		{"duplicate", func(s *Spec) { s.Objectives[1] = s.Objectives[0] }, "duplicate"},
		{"unknown series", func(s *Spec) { s.Objectives[0].Name = "no_such" }, "valid:"},
		{"bad direction", func(s *Spec) { s.Objectives[0].Direction = "around" }, "direction"},
		{"nan threshold", func(s *Spec) { s.Objectives[0].Threshold = math.NaN() }, "finite"},
		{"inf threshold", func(s *Spec) { s.Objectives[0].Threshold = math.Inf(1) }, "finite"},
		{"negative over", func(s *Spec) { s.Objectives[0].Over = -1 }, "over"},
		{"tolerance too big", func(s *Spec) { s.Objectives[2].Tolerance = 1 }, "tolerance"},
		{"negative tolerance", func(s *Spec) { s.Objectives[2].Tolerance = -0.1 }, "tolerance"},
		{"final with horizon", func(s *Spec) { s.Objectives[1].Over = 3 }, "final"},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: spec accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q lacks %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestValidateUnknownSeriesListsCatalog(t *testing.T) {
	s := &Spec{Objectives: []Objective{{Name: "typo_series", Direction: AtMost, Threshold: 1}}}
	err := s.Validate()
	if err == nil {
		t.Fatal("unknown series accepted")
	}
	for _, name := range SeriesNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid series %q", err, name)
		}
	}
}
