// Package slo is the evaluative layer on top of the raw telemetry: a
// virtual-time flight recorder that folds the obs event bus and metrics
// registry into fixed-width windowed time series (checkpoint-window
// interconnect bytes, pre-copy hit rate, re-dirty rate, per-tier recovery
// counts, MTTR, degraded time, availability), plus a declarative SLO spec —
// objectives with thresholds, directions, evaluation horizons and burn-rate
// style tolerances — evaluated online as each window closes.
//
// The recorder attaches to an Observer as an event tap (alongside the
// lineage tracer), closes windows lazily as virtual time crosses their
// boundaries, and stores closed windows in a bounded ring. Violations mirror
// the lineage package's contract: carried into cluster.Result, fatal under
// strict mode, and summarized into the RunReport. The report sub-files
// render the recorder as a stable JSON artifact, a self-contained HTML page
// with inline SVG charts, and a cross-run regression diff.
package slo

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Directions an objective can point.
const (
	// AtMost passes while the series value is <= the threshold.
	AtMost = "at_most"
	// AtLeast passes while the series value is >= the threshold.
	AtLeast = "at_least"
)

// seriesNames is the windowed series catalog the flight recorder produces,
// sorted. Objectives must target one of these.
var seriesNames = []string{
	"availability",
	"ckpt_window_bytes",
	"degraded_seconds",
	"mttr_seconds",
	"precopy_hit_rate",
	"recovery_bottom",
	"recovery_local",
	"recovery_lost",
	"recovery_remote",
	"redirty_rate",
}

// SeriesNames returns the windowed series catalog, sorted.
func SeriesNames() []string {
	return append([]string(nil), seriesNames...)
}

func knownSeries(name string) bool {
	i := sort.SearchStrings(seriesNames, name)
	return i < len(seriesNames) && seriesNames[i] == name
}

// Objective is one declarative service-level objective over a windowed
// series.
type Objective struct {
	// Name identifies the objective (unique within a spec).
	Name string `json:"name"`
	// Series names the windowed series evaluated (defaults to Name).
	Series string `json:"series,omitempty"`
	// Direction is AtMost or AtLeast; Threshold is the bound. The threshold
	// value itself passes.
	Direction string  `json:"direction"`
	Threshold float64 `json:"threshold"`
	// Over is the evaluation horizon in windows (default 1): each closed
	// window is judged against the last Over windows that had data.
	Over int `json:"over,omitempty"`
	// Tolerance is the burn-rate style allowance: the fraction of windows in
	// the horizon permitted to violate before the objective breaches
	// (default 0 — any violating window breaches).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Final evaluates the objective once, at end of run, against the
	// whole-run aggregate of the series (peak for ckpt_window_bytes,
	// cumulative rates, mean MTTR, total degraded time, overall
	// availability, total recovery counts) instead of per window.
	Final bool `json:"final,omitempty"`
}

// SeriesName resolves the series the objective targets.
func (o *Objective) SeriesName() string {
	if o.Series != "" {
		return o.Series
	}
	return o.Name
}

// horizon is Over with its default applied.
func (o *Objective) horizon() int {
	if o.Over < 1 {
		return 1
	}
	return o.Over
}

// violated reports whether value v breaks the objective's bound.
func (o *Objective) violated(v float64) bool {
	if o.Direction == AtLeast {
		return v < o.Threshold
	}
	return v > o.Threshold
}

// Spec is the declarative SLO block a scenario embeds.
type Spec struct {
	// WindowSecs is the flight-recorder window width in virtual seconds
	// (default 5 — the Figure 10 bucket).
	WindowSecs float64 `json:"window_secs,omitempty"`
	// Objectives are the run's targets.
	Objectives []Objective `json:"objectives"`
}

// Window returns the spec's window width with the default applied.
func (s *Spec) Window() time.Duration {
	if s == nil || s.WindowSecs <= 0 {
		return DefaultWindow
	}
	return time.Duration(s.WindowSecs * float64(time.Second))
}

// Validate checks the spec, returning actionable errors: unknown series
// list the valid catalog, out-of-range numbers say the range.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.WindowSecs < 0 {
		return fmt.Errorf("slo: window_secs must be >= 0 (0 = default %gs), got %g",
			DefaultWindow.Seconds(), s.WindowSecs)
	}
	if len(s.Objectives) == 0 {
		return fmt.Errorf("slo: spec has no objectives (series: %s)", strings.Join(seriesNames, ", "))
	}
	seen := make(map[string]bool, len(s.Objectives))
	for i, o := range s.Objectives {
		if o.Name == "" {
			return fmt.Errorf("slo: objective %d has no name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		if !knownSeries(o.SeriesName()) {
			return fmt.Errorf("slo: objective %q targets unknown series %q (valid: %s)",
				o.Name, o.SeriesName(), strings.Join(seriesNames, ", "))
		}
		switch o.Direction {
		case AtMost, AtLeast:
		default:
			return fmt.Errorf("slo: objective %q direction %q (valid: %s, %s)",
				o.Name, o.Direction, AtMost, AtLeast)
		}
		if math.IsNaN(o.Threshold) || math.IsInf(o.Threshold, 0) {
			return fmt.Errorf("slo: objective %q threshold must be finite", o.Name)
		}
		if o.Over < 0 {
			return fmt.Errorf("slo: objective %q over must be >= 0 (0 = 1 window), got %d", o.Name, o.Over)
		}
		if o.Tolerance < 0 || o.Tolerance >= 1 {
			return fmt.Errorf("slo: objective %q tolerance must be in [0,1), got %g", o.Name, o.Tolerance)
		}
		if o.Final && o.Over > 1 {
			return fmt.Errorf("slo: objective %q is final (one whole-run evaluation) but sets over=%d windows",
				o.Name, o.Over)
		}
	}
	return nil
}

// Config tunes the flight recorder.
type Config struct {
	// Enabled turns the recorder (and evaluation, when a Spec is set) on.
	Enabled bool `json:"enabled"`
	// Strict makes the run fail loudly on the first objective breach.
	Strict bool `json:"strict,omitempty"`
	// Spec carries the objectives; nil records the flight series only.
	Spec *Spec `json:"spec,omitempty"`
}

// maxWindows bounds the in-memory window ring; older windows fall off but
// the running aggregates keep counting. maxViolations bounds retained
// violation details; the total count keeps counting past it.
const (
	maxWindows    = 512
	maxViolations = 64
)

// DefaultWindow is the flight-recorder window width when the spec does not
// set one — the Figure 10 peak-traffic bucket.
const DefaultWindow = 5 * time.Second

// Violation is one objective breach episode.
type Violation struct {
	// TUS is the virtual close time of the breaching window (for final
	// objectives: the end of the run).
	TUS int64 `json:"t_us"`
	// Window is the breaching window's index (-1 for final objectives).
	Window    int     `json:"window"`
	Objective string  `json:"objective"`
	Series    string  `json:"series"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Direction string  `json:"direction"`
	Detail    string  `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%dus objective=%s: %s", v.TUS, v.Objective, v.Detail)
}
