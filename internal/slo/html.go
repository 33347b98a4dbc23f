package slo

import (
	"fmt"
	"html"
	"io"
	"math"
	"strings"

	"nvmcp/internal/report"
)

// WriteHTML renders the report as a single self-contained page: run
// metadata, headline stat tiles, the objective verdict table, one inline
// SVG time-series chart per windowed series (step line per window, dashed
// threshold lines, violation markers), the violation log, a collapsed
// per-window data table, and — when a drift report is embedded — the
// predicted-vs-measured model-drift section. No external assets, no
// wall-clock content — the output is byte-stable for a deterministic run.
// The palette, chart geometry and tooltip script come from internal/report.
func WriteHTML(w io.Writer, rep Report) error {
	return report.WritePage(w, "slo", "SLO run report", func(b *strings.Builder) {
		rep.WriteTitle(b, "SLO run report", fmt.Sprintf(" · window %s · virtual end %s · %d windows",
			report.FmtSecs(float64(rep.WindowUS)/1e6), report.FmtSecs(float64(rep.VirtualEndUS)/1e6), rep.Summary.Windows))
		writeTiles(b, rep)
		writeObjectiveTable(b, rep)
		writeCharts(b, rep)
		writeViolations(b, rep)
		writeWindowTable(b, rep)
		if rep.Drift != nil {
			rep.Drift.WriteHTMLSection(b)
		}
	})
}

func writeTiles(b *strings.Builder, rep Report) {
	s := rep.Summary
	b.WriteString("<div class=\"tiles\">\n")
	tile := func(k, v string, bad bool) {
		cls := "v"
		if bad {
			cls = "v bad"
		}
		fmt.Fprintf(b, "<div class=\"tile\"><div class=\"k\">%s</div><div class=\"%s\">%s</div></div>\n",
			html.EscapeString(k), cls, html.EscapeString(v))
	}
	tile("Availability", report.FmtPct(s.Availability), false)
	tile("Peak ckpt window", report.FmtBytes(s.PeakCkptWindowBytes), false)
	tile("Pre-copy hit rate", report.FmtPct(s.PrecopyHitRate), false)
	tile("Re-dirty rate", report.FmtPct(s.RedirtyRate), false)
	if s.MTTRSeconds > 0 {
		tile("MTTR", report.FmtSecs(s.MTTRSeconds), false)
	}
	if s.ViolationCount > 0 {
		tile("Violations", fmt.Sprintf("⚠ %d", s.ViolationCount), true)
	} else if len(s.Objectives) > 0 {
		tile("Violations", "0", false)
	}
	b.WriteString("</div>\n")
}

func writeObjectiveTable(b *strings.Builder, rep Report) {
	if len(rep.Summary.Objectives) == 0 {
		return
	}
	b.WriteString("<h2>Objectives</h2>\n<table class=\"data\">\n<tr><th>Objective</th><th>Bound</th><th>Scope</th><th>Windows</th><th>Breached</th><th>Episodes</th><th>Value</th><th>Verdict</th></tr>\n")
	for _, o := range rep.Summary.Objectives {
		scope := fmt.Sprintf("last %d win", o.Over)
		if o.Final {
			scope = "whole run"
		}
		if o.Tolerance > 0 {
			scope += fmt.Sprintf(", tol %g", o.Tolerance)
		}
		val := "–"
		if v := pickValue(o); v != nil {
			val = fmtSeriesValue(o.Series, *v)
		}
		verdict := "<span class=\"pass\">✓ pass</span>"
		if !o.Pass {
			verdict = "<span class=\"fail\">✗ fail</span>"
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s %s %s</td><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td>%s</td></tr>\n",
			html.EscapeString(o.Name), html.EscapeString(o.Series), dirGlyph(o.Direction),
			fmtSeriesValue(o.Series, o.Threshold), scope, o.Evaluated, o.Breached, o.Episodes, val, verdict)
	}
	b.WriteString("</table>\n")
}

func pickValue(o ObjectiveStatus) *float64 {
	if o.FinalValue != nil {
		return o.FinalValue
	}
	return o.LastValue
}

func dirGlyph(direction string) string {
	if direction == AtLeast {
		return "≥" // ≥
	}
	return "≤" // ≤
}

func writeCharts(b *strings.Builder, rep Report) {
	if len(rep.Windows) == 0 {
		return
	}
	b.WriteString("<h2>Windowed series</h2>\n")
	for _, series := range rep.Series {
		writeChart(b, rep, series)
	}
}

// writeChart renders one series as a shared-helper step chart: dashed
// threshold lines for objectives on the series and status-critical markers
// at violating windows.
func writeChart(b *strings.Builder, rep Report, series string) {
	violAt := map[int]Violation{}
	for _, v := range rep.Violations {
		if v.Series == series && v.Window >= 0 {
			violAt[v.Window] = v
		}
	}

	var pts []report.StepPoint
	minV := math.Inf(1)
	for _, w := range rep.Windows {
		v, ok := w.Values[series]
		if !ok {
			continue
		}
		minV = math.Min(minV, v)
		label := fmt.Sprintf("[%s, %s) %s = %s",
			report.FmtSecs(float64(w.StartUS)/1e6), report.FmtSecs(float64(w.EndUS)/1e6),
			series, fmtSeriesValue(series, v))
		viol, bad := violAt[w.Index]
		if bad {
			label = "⚠ " + label + " — " + viol.Objective
		}
		pts = append(pts, report.StepPoint{StartUS: w.StartUS, EndUS: w.EndUS, V: v, Label: label, Bad: bad})
	}
	if len(pts) == 0 {
		return
	}

	// Objectives attached to this series become threshold annotations.
	var ths []report.Threshold
	negThreshold := false
	for _, o := range rep.Summary.Objectives {
		if o.Series != series || o.Final {
			continue
		}
		ths = append(ths, report.Threshold{
			Label: fmt.Sprintf("%s %s %s", o.Name, dirGlyph(o.Direction), fmtSeriesValue(series, o.Threshold)),
			V:     o.Threshold,
		})
		if o.Threshold < 0 {
			negThreshold = true
		}
	}

	sub := "no objective on this series"
	if n := len(violAt); n > 0 {
		sub = fmt.Sprintf("<span class=\"viol\">⚠ %d violating window(s)</span>", n)
	} else if len(ths) > 0 {
		sub = "within objective"
	}

	report.WriteStepChart(b, report.StepChart{
		Title:      seriesTitle(series),
		SubHTML:    sub,
		Series:     []report.StepSeries{{Name: series, Color: 1, Points: pts}},
		Thresholds: ths,
		Fmt:        func(v float64) string { return fmtSeriesValue(series, v) },
		ClampZero:  series != "availability" && minV >= 0 && !negThreshold,
	})
}

func writeViolations(b *strings.Builder, rep Report) {
	if len(rep.Violations) == 0 {
		return
	}
	b.WriteString("<h2>Violations</h2>\n<table class=\"data\">\n<tr><th>Virtual time</th><th>Window</th><th>Objective</th><th>Detail</th></tr>\n")
	for _, v := range rep.Violations {
		win := "final"
		if v.Window >= 0 {
			win = fmt.Sprintf("%d", v.Window)
		}
		fmt.Fprintf(b, "<tr><td class=\"num\">%s</td><td class=\"num\">%s</td><td>%s</td><td>%s</td></tr>\n",
			report.FmtSecs(float64(v.TUS)/1e6), win, html.EscapeString(v.Objective), html.EscapeString(v.Detail))
	}
	b.WriteString("</table>\n")
}

// writeWindowTable is the table view of the charts, collapsed by default.
func writeWindowTable(b *strings.Builder, rep Report) {
	if len(rep.Windows) == 0 {
		return
	}
	b.WriteString("<details><summary>Window data table</summary>\n<table class=\"data\">\n<tr><th>#</th><th>Start</th><th>End</th>")
	for _, s := range rep.Series {
		fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(s))
	}
	b.WriteString("</tr>\n")
	for _, w := range rep.Windows {
		fmt.Fprintf(b, "<tr><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%s</td>",
			w.Index, report.FmtSecs(float64(w.StartUS)/1e6), report.FmtSecs(float64(w.EndUS)/1e6))
		for _, s := range rep.Series {
			if v, ok := w.Values[s]; ok {
				fmt.Fprintf(b, "<td class=\"num\">%s</td>", html.EscapeString(fmtSeriesValue(s, v)))
			} else {
				b.WriteString("<td class=\"num\">–</td>")
			}
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n</details>\n")
}

// seriesTitle spells the series name out for chart headers.
func seriesTitle(series string) string {
	switch series {
	case "ckpt_window_bytes":
		return "Checkpoint-window interconnect bytes"
	case "precopy_hit_rate":
		return "Pre-copy hit rate"
	case "redirty_rate":
		return "Re-dirty rate"
	case "mttr_seconds":
		return "Mean time to repair"
	case "degraded_seconds":
		return "Degraded time per window"
	case "availability":
		return "Availability"
	case "recovery_local":
		return "Chunks recovered from local NVM"
	case "recovery_remote":
		return "Chunks recovered from buddy"
	case "recovery_bottom":
		return "Chunks recovered from PFS"
	case "recovery_lost":
		return "Chunks lost"
	}
	return series
}

// fmtSeriesValue formats a value in the series' natural unit.
func fmtSeriesValue(series string, v float64) string {
	switch series {
	case "ckpt_window_bytes":
		return report.FmtBytes(v)
	case "precopy_hit_rate", "redirty_rate", "availability":
		return report.FmtPct(v)
	case "mttr_seconds", "degraded_seconds":
		return report.FmtSecs(v)
	}
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
