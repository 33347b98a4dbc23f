// Package drift is the model-drift observatory: an event-tap consumer of
// the obs bus that maintains windowed online estimators of the quantities
// the paper's Section III model takes as inputs (per-chunk re-dirty rate,
// measured MTBF per failure class, effective NVM and remote bandwidths,
// measured t_lcl / t_rmt, pre-copy hit rate), re-evaluates the analytic
// model each virtual-time window with the measured inputs, and emits
// predicted-vs-measured drift gauges — the relative error per modeled
// quantity — plus phase-change detection when the re-dirty rate shifts
// regime.
//
// The observatory folds from the event stream alone (never from registry
// polling), so one event tap serves both engines: live on a serial run's
// bus, and on a sharded run's coordinator, through which obs.MergeShards
// publishes the merged stream after the run. The fold accumulates window
// state in integers and converts to floats only at window close, making
// every derived report byte-stable at any GOMAXPROCS for a fixed shard
// count.
package drift

import (
	"fmt"
	"sort"
	"time"
)

// Quantity names for the predicted-vs-measured drift gauges. Each is the
// relative error |pred - meas| / max(|pred|, |meas|) of one §III quantity,
// bounded to [0, 1] (0 = model and telemetry agree, 1 = totally off).
const (
	QtyCkptTime    = "ckpt_time"    // blocking local checkpoint time t_lcl
	QtyWindowBytes = "window_bytes" // interconnect bytes per drift window
	QtyEfficiency  = "efficiency"   // application efficiency (Fig 9 y-axis)
	QtyPrecopyTp   = "precopy_tp"   // DCPC pre-copy threshold T_p
)

// quantities is the sorted catalog of valid limit targets.
var quantities = []string{QtyCkptTime, QtyEfficiency, QtyPrecopyTp, QtyWindowBytes}

func knownQuantity(q string) bool {
	i := sort.SearchStrings(quantities, q)
	return i < len(quantities) && quantities[i] == q
}

// Limit bounds the relative error of one quantity: the limit is breached
// when the quantity's drift gauge exceeds MaxRelErr for Over consecutive
// measured windows (windows where the quantity could not be evaluated do
// not count toward, or against, the streak).
type Limit struct {
	// Quantity is one of the drift quantity names (see Quantities).
	Quantity string `json:"quantity"`
	// MaxRelErr is the highest tolerated relative error, in (0, 1].
	MaxRelErr float64 `json:"max_rel_err"`
	// Over is how many consecutive measured windows must breach before a
	// violation fires (default 1). One violation per breach episode.
	Over int `json:"over,omitempty"`
}

func (l Limit) horizon() int {
	if l.Over <= 0 {
		return 1
	}
	return l.Over
}

// Spec is the scenario-declared drift configuration. The observatory
// estimates over obs.WindowWidth windows, the SLO recorder's and the
// Figure 10 bucket's width.
type Spec struct {
	// Limits are the drift thresholds; empty means observe-only (the
	// observatory still estimates, predicts and detects phase changes).
	Limits []Limit `json:"limits,omitempty"`
}

// The phase detector's rule: a window's re-dirty rate more than phaseFactor
// times the trailing regime mean (or less than mean/phaseFactor), with an
// absolute change of at least phaseAbsGuard, registers a phase shift and
// resets the regime, once phaseWarmup active windows have established it.
// The guard keeps near-zero regimes from firing on noise.
const (
	phaseFactor   = 2.0
	phaseWarmup   = 3
	phaseAbsGuard = 0.05
)

// Validate rejects malformed specs with actionable errors.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	for i, l := range s.Limits {
		if !knownQuantity(l.Quantity) {
			return fmt.Errorf("drift: limits[%d]: unknown quantity %q (valid: %v)", i, l.Quantity, quantities)
		}
		if l.MaxRelErr <= 0 || l.MaxRelErr > 1 {
			return fmt.Errorf("drift: limits[%d] (%s): max_rel_err must be in (0, 1], got %g — drift is the bounded relative error |pred-meas|/max(|pred|,|meas|)",
				i, l.Quantity, l.MaxRelErr)
		}
		if l.Over < 0 {
			return fmt.Errorf("drift: limits[%d] (%s): over must be >= 0, got %d", i, l.Quantity, l.Over)
		}
		for j := 0; j < i; j++ {
			if s.Limits[j].Quantity == l.Quantity {
				return fmt.Errorf("drift: limits[%d] duplicates quantity %q (limits[%d])", i, l.Quantity, j)
			}
		}
	}
	return nil
}

// Config enables the observatory on a cluster run. It keeps the newest 512
// windows (older ones drop from reports but stay in the aggregates) and the
// first 64 violations, obs.WindowFold's bounds.
type Config struct {
	Enabled bool
	// Strict makes the run fail loudly when any limit is violated.
	Strict bool
	Spec   Spec
}

// Violation records one drift-limit breach episode.
type Violation struct {
	// TUS is the virtual time (µs) of the window close that fired.
	TUS int64 `json:"t_us"`
	// Window is the closing window's index.
	Window int `json:"window"`
	// Quantity is the drifting quantity.
	Quantity string `json:"quantity"`
	// RelErr is the window's measured relative error.
	RelErr float64 `json:"rel_err"`
	// MaxRelErr is the configured bound.
	MaxRelErr float64 `json:"max_rel_err"`
	// Over is the consecutive-window horizon that was filled.
	Over int `json:"over"`
	// Detail is the human-readable one-liner.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("drift violation at t=%s window %d: %s", fmtUS(v.TUS), v.Window, v.Detail)
}

// PhaseShift records one detected re-dirty-rate regime change.
type PhaseShift struct {
	// TUS is the virtual time (µs) of the window close that detected it.
	TUS int64 `json:"t_us"`
	// Window is the closing window's index.
	Window int `json:"window"`
	// From is the trailing regime's mean re-dirty rate; To is the new
	// window's rate.
	From float64 `json:"from"`
	To   float64 `json:"to"`
}

func (p PhaseShift) String() string {
	return fmt.Sprintf("phase shift at t=%s window %d: redirty rate %.3f -> %.3f", fmtUS(p.TUS), p.Window, p.From, p.To)
}

func fmtUS(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}
