package drift

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"nvmcp/internal/report"
)

// SchemaVersion marks the drift report layout.
const SchemaVersion = 1

// Report is the byte-stable JSON artifact: declared-model baseline,
// per-window estimator/prediction rows, detected phase shifts, limit
// violations, and the run rollup.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	report.Meta
	WindowUS     int64        `json:"window_us"`
	VirtualEndUS int64        `json:"virtual_end_us"`
	Baseline     Baseline     `json:"baseline"`
	Series       []string     `json:"series"`
	Windows      []Window     `json:"windows"`
	PhaseShifts  []PhaseShift `json:"phase_shifts"`
	Violations   []Violation  `json:"violations"`
	Summary      Summary      `json:"summary"`
}

// BuildReport snapshots the observatory into a report. Call after
// Finalize for complete coverage.
func BuildReport(d *Observatory, m report.Meta) Report {
	d.mu.Lock()
	windowUS, endUS := d.fold.Width().Microseconds(), d.fold.End().Microseconds()
	d.mu.Unlock()
	rep := Report{
		SchemaVersion: SchemaVersion,
		Meta:          m,
		WindowUS:      windowUS,
		VirtualEndUS:  endUS,
		Baseline:      d.Baseline(),
		Windows:       d.Windows(),
		PhaseShifts:   d.PhaseShifts(),
		Violations:    d.Violations(),
		Summary:       d.Summary(),
	}
	seen := map[string]bool{}
	for _, w := range rep.Windows {
		for k := range w.Values {
			seen[k] = true
		}
	}
	rep.Series = make([]string, 0, len(seen))
	for k := range seen {
		rep.Series = append(rep.Series, k)
	}
	sort.Strings(rep.Series)
	if rep.Windows == nil {
		rep.Windows = []Window{}
	}
	if rep.PhaseShifts == nil {
		rep.PhaseShifts = []PhaseShift{}
	}
	if rep.Violations == nil {
		rep.Violations = []Violation{}
	}
	return rep
}

// WriteHTML renders the standalone drift page (the same section the SLO
// report embeds, with its own chrome).
func WriteHTML(w io.Writer, rep Report) error {
	return report.WritePage(w, "drift", "Model drift report", func(b *strings.Builder) {
		rep.WriteTitle(b, "Model drift report", fmt.Sprintf(" · window %s · virtual end %s",
			report.FmtSecs(float64(rep.WindowUS)/1e6), report.FmtSecs(float64(rep.VirtualEndUS)/1e6)))
		rep.WriteHTMLSection(b)
	})
}

// quantityView names the window-value keys and formatting of one drift
// quantity's predicted-vs-measured chart pair.
type quantityView struct {
	quantity string
	title    string
	predKey  string
	measKey  string
	fmtV     func(float64) string
}

func views() []quantityView {
	return []quantityView{
		{QtyCkptTime, "Local checkpoint time t_lcl", "ckpt_time_pred_s", "ckpt_time_meas_s", report.FmtSecs},
		{QtyWindowBytes, "Interconnect bytes per window", "window_bytes_pred", "window_bytes_meas", report.FmtBytes},
		{QtyEfficiency, "Application efficiency", "efficiency_pred", "efficiency_meas", report.FmtPct},
		{QtyPrecopyTp, "Pre-copy threshold T_p", "precopy_tp_pred_s", "precopy_tp_meas_s", report.FmtSecs},
	}
}

// WriteHTMLSection renders the drift section — the paper's
// model-validation figures as live charts: per quantity, the predicted
// (dashed) vs measured step lines, then the relative-error gauge with its
// limit line and violation markers; plus the phase-shift log, measured
// MTBF table, and violation log. The SLO HTML report embeds this when a
// drift report rides along.
func (rep *Report) WriteHTMLSection(b *strings.Builder) {
	b.WriteString("<h2>Model drift — §III predicted vs measured</h2>\n")
	fmt.Fprintf(b, "<div class=\"meta\">%d windows · %d phase shift(s) · %d violation(s)</div>\n",
		rep.Summary.Windows, rep.Summary.PhaseShifts, rep.Summary.Violations)
	writeBaselineTable(b, rep.Baseline)

	limitOf := map[string]float64{}
	for _, q := range rep.Summary.Quantities {
		if q.LimitMax > 0 {
			limitOf[q.Quantity] = q.LimitMax
		}
	}
	violAt := map[string]map[int]Violation{}
	for _, v := range rep.Violations {
		if violAt[v.Quantity] == nil {
			violAt[v.Quantity] = map[int]Violation{}
		}
		violAt[v.Quantity][v.Window] = v
	}

	for _, qv := range views() {
		writeQuantityCharts(b, rep, qv, limitOf[qv.quantity], violAt[qv.quantity])
	}
	writePhaseShifts(b, rep)
	writeMTBFTable(b, rep)
	writeDriftViolations(b, rep)
}

func writeBaselineTable(b *strings.Builder, bl Baseline) {
	b.WriteString("<table class=\"data\">\n<tr><th>ranks</th><th>D / rank</th><th>NVM BW/core</th><th>remote BW/core</th><th>I_lcl</th><th>I_rmt</th><th>t_lcl</th><th>t_rmt</th><th>T_p</th><th>efficiency</th></tr>\n")
	cell := func(s string) { fmt.Fprintf(b, "<td class=\"num\">%s</td>", html.EscapeString(s)) }
	b.WriteString("<tr>")
	cell(fmt.Sprintf("%d", bl.Ranks))
	cell(report.FmtBytes(float64(bl.CkptBytesPerRank)))
	cell(fmtBW(bl.NVMBWPerCore))
	cell(fmtBW(bl.RemoteBWPerCore))
	cell(report.FmtSecs(float64(bl.IntervalLocalUS) / 1e6))
	cell(report.FmtSecs(float64(bl.IntervalRemoteUS) / 1e6))
	cell(report.FmtSecs(float64(bl.TLclUS) / 1e6))
	cell(report.FmtSecs(float64(bl.TRmtUS) / 1e6))
	cell(report.FmtSecs(float64(bl.PrecopyTpUS) / 1e6))
	cell(report.FmtPct(bl.Efficiency))
	b.WriteString("</tr>\n</table>\n")
}

func fmtBW(v float64) string {
	if v <= 0 {
		return "–"
	}
	return report.FmtBytes(v) + "/s"
}

func writeQuantityCharts(b *strings.Builder, rep *Report, qv quantityView, limit float64, viol map[int]Violation) {
	var pred, meas []report.StepPoint
	for _, w := range rep.Windows {
		if v, ok := w.Values[qv.predKey]; ok {
			pred = append(pred, report.StepPoint{StartUS: w.StartUS, EndUS: w.EndUS, V: v,
				Label: windowLabel(w, "predicted", qv.fmtV(v))})
		}
		if v, ok := w.Values[qv.measKey]; ok {
			meas = append(meas, report.StepPoint{StartUS: w.StartUS, EndUS: w.EndUS, V: v,
				Label: windowLabel(w, "measured", qv.fmtV(v))})
		}
	}
	if len(pred)+len(meas) == 0 {
		return
	}
	report.WriteStepChart(b, report.StepChart{
		Title:   qv.title,
		SubHTML: "predicted (dashed) vs measured",
		Series: []report.StepSeries{
			{Name: "measured", Color: 1, Points: meas},
			{Name: "predicted", Color: 2, Dashed: true, Points: pred},
		},
		Fmt:       qv.fmtV,
		ClampZero: true,
	})

	// The drift gauge itself: relative error with the configured bound.
	var errs []report.StepPoint
	errKey := "err_" + qv.quantity
	for _, w := range rep.Windows {
		e, ok := w.Values[errKey]
		if !ok {
			continue
		}
		label := windowLabel(w, errKey, report.TrimFloat(e))
		v, bad := viol[w.Index]
		if bad {
			label = "⚠ " + label + " — " + v.Detail
		}
		errs = append(errs, report.StepPoint{StartUS: w.StartUS, EndUS: w.EndUS, V: e, Label: label, Bad: bad})
	}
	if len(errs) == 0 {
		return
	}
	var ths []report.Threshold
	sub := "no limit configured"
	if limit > 0 {
		ths = append(ths, report.Threshold{Label: fmt.Sprintf("max_rel_err ≤ %s", report.TrimFloat(limit)), V: limit})
		sub = "within limit"
	}
	if n := len(viol); n > 0 {
		sub = fmt.Sprintf("<span class=\"viol\">⚠ %d violating window(s)</span>", n)
	}
	report.WriteStepChart(b, report.StepChart{
		Title:      qv.title + " — drift (relative error)",
		SubHTML:    sub,
		Series:     []report.StepSeries{{Name: errKey, Color: 5, Points: errs}},
		Thresholds: ths,
		Fmt:        report.TrimFloat,
		ClampZero:  true,
	})
}

func windowLabel(w Window, what, val string) string {
	return fmt.Sprintf("[%s, %s) %s = %s",
		report.FmtSecs(float64(w.StartUS)/1e6), report.FmtSecs(float64(w.EndUS)/1e6), what, val)
}

func writePhaseShifts(b *strings.Builder, rep *Report) {
	if len(rep.PhaseShifts) == 0 {
		return
	}
	b.WriteString("<h2>Phase shifts</h2>\n<table class=\"data\">\n<tr><th>Virtual time</th><th>Window</th><th>Re-dirty regime</th></tr>\n")
	for _, p := range rep.PhaseShifts {
		fmt.Fprintf(b, "<tr><td class=\"num\">%s</td><td class=\"num\">%d</td><td>%s → %s</td></tr>\n",
			report.FmtSecs(float64(p.TUS)/1e6), p.Window,
			report.FmtPct(p.From), report.FmtPct(p.To))
	}
	b.WriteString("</table>\n")
}

func writeMTBFTable(b *strings.Builder, rep *Report) {
	if len(rep.Summary.MTBF) == 0 {
		return
	}
	b.WriteString("<h2>Measured MTBF</h2>\n<table class=\"data\">\n<tr><th>Failure class</th><th>Failures</th><th>Measured MTBF</th></tr>\n")
	for _, m := range rep.Summary.MTBF {
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(m.Kind), m.Failures, report.FmtSecs(m.MeasuredSecs))
	}
	b.WriteString("</table>\n")
}

func writeDriftViolations(b *strings.Builder, rep *Report) {
	if len(rep.Violations) == 0 {
		return
	}
	b.WriteString("<h2>Drift violations</h2>\n<table class=\"data\">\n<tr><th>Virtual time</th><th>Window</th><th>Quantity</th><th>Detail</th></tr>\n")
	for _, v := range rep.Violations {
		fmt.Fprintf(b, "<tr><td class=\"num\">%s</td><td class=\"num\">%d</td><td>%s</td><td>%s</td></tr>\n",
			report.FmtSecs(float64(v.TUS)/1e6), v.Window, html.EscapeString(v.Quantity), html.EscapeString(v.Detail))
	}
	b.WriteString("</table>\n")
}
