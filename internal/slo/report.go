package slo

import (
	"nvmcp/internal/drift"
	"nvmcp/internal/report"
)

// SchemaVersion identifies the run-report JSON layout. Bump on incompatible
// change; the diff refuses to compare mismatched versions.
const SchemaVersion = 1

// Report is the stable JSON artifact one run emits: identity, the windowed
// time series, the objective verdicts, the violations, and the rollup. The
// same struct feeds the HTML renderer and the cross-run diff.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	report.Meta
	WindowUS     int64 `json:"window_us"`
	VirtualEndUS int64 `json:"virtual_end_us"`
	// Series lists the windowed series catalog, sorted.
	Series []string `json:"series"`
	// Windows are the retained closed windows, oldest first.
	Windows    []Window    `json:"windows"`
	Violations []Violation `json:"violations"`
	Summary    Summary     `json:"summary"`
	// Drift embeds the model-drift observatory's report when the run had
	// drift enabled; the HTML renderer appends its predicted-vs-measured
	// section.
	Drift *drift.Report `json:"drift,omitempty"`
}

// BuildReport renders the recorder into the artifact form. Call after
// Finalize so final objectives and the tail window are present.
func BuildReport(r *Recorder, meta report.Meta) Report {
	r.mu.Lock()
	endUS := r.fold.End().Microseconds()
	r.mu.Unlock()
	sum := r.Summary()
	rep := Report{
		SchemaVersion: SchemaVersion,
		Meta:          meta,
		WindowUS:      sum.WindowUS,
		VirtualEndUS:  endUS,
		Series:        SeriesNames(),
		Windows:       r.Windows(),
		Violations:    r.Violations(),
		Summary:       sum,
	}
	if rep.Windows == nil {
		rep.Windows = []Window{}
	}
	if rep.Violations == nil {
		rep.Violations = []Violation{}
	}
	return rep
}
