// Package report owns the artifact format of the self-contained run reports
// (SLO, drift, fleet stress): the run identity, the page frame and title
// line, the inline-SVG/HTML rendering helpers, and the HTML/JSON file pair.
// Every renderer emits byte-stable output for a deterministic run: no
// external assets, no wall-clock content, all styling via the shared
// design-token palette with light/dark steps.
package report

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"
)

// Meta is the run identity stamped into every report. Everything here is
// deterministic — no wall-clock timestamps — so golden files and checked-in
// baselines stay byte-stable. Reports embed it right after their schema
// version, which promotes its fields into the report's JSON in place.
type Meta struct {
	Tool     string `json:"tool"`
	Scenario string `json:"scenario,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// WritePage renders one self-contained report page: the head, body, and the
// tail. pkg names the report's package in the error.
func WritePage(w io.Writer, pkg, title string, body func(b *strings.Builder)) error {
	var b strings.Builder
	writeHead(&b, title)
	body(&b)
	writeTail(&b)
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("%s: write html report: %w", pkg, err)
	}
	return nil
}

// WriteTitle writes the page's <h1> and its identity line: the tool, then
// the scenario and seed when set, then tail (already-escaped HTML, each
// item led by " · ").
func (m Meta) WriteTitle(b *strings.Builder, title, tail string) {
	fmt.Fprintf(b, "<h1>%s</h1>\n<div class=\"meta\">%s", html.EscapeString(title), html.EscapeString(m.Tool))
	if m.Scenario != "" {
		fmt.Fprintf(b, " · scenario %s", html.EscapeString(m.Scenario))
	}
	if m.Seed != 0 {
		fmt.Fprintf(b, " · seed %d", m.Seed)
	}
	b.WriteString(tail)
	b.WriteString("</div>\n")
}

// writeHead opens a self-contained page: doctype, the design-token palette
// (chart surfaces, ink hierarchy, hairline grid, six categorical series
// slots, reserved status colors), and the shared card/table/tooltip CSS.
// Dark steps are declared under both the media query and an explicit
// data-theme scope.
func writeHead(b *strings.Builder, title string) {
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n<title>")
	b.WriteString(html.EscapeString(title))
	b.WriteString("</title>\n<style>\n")
	b.WriteString(paletteCSS)
	b.WriteString("</style>\n</head>\n<body class=\"viz-root\">\n")
}

const paletteCSS = `.viz-root {
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --axis: #c3c2b7;
  --series-1: #2a78d6;
  --series-2: #d07c2a;
  --series-3: #2aa053;
  --series-4: #9a5bd0;
  --series-5: #d0492a;
  --series-6: #2ab2c4;
  --status-critical: #d03b3b;
  --status-good: #0ca30c;
}
@media (prefers-color-scheme: dark) {
  :where(.viz-root) {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --axis: #383835;
    --series-1: #3987e5;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --gridline: #2c2c2a;
  --axis: #383835;
  --series-1: #3987e5;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 14px; font-weight: 600; margin: 28px 0 8px; color: var(--text-primary); }
.meta { color: var(--text-secondary); font-size: 13px; margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 8px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--gridline);
  border-radius: 8px; padding: 12px 16px; min-width: 130px;
}
.tile .k { font-size: 12px; color: var(--text-secondary); }
.tile .v { font-size: 22px; font-weight: 600; margin-top: 2px; }
.tile .v.bad { color: var(--status-critical); }
.verdict { font-size: 14px; font-weight: 600; margin: 6px 0; }
.verdict.ok { color: var(--status-good); }
.verdict.bad { color: var(--status-critical); }
table.data {
  border-collapse: collapse; font-size: 13px;
  background: var(--surface-1); border: 1px solid var(--gridline); border-radius: 8px;
}
table.data th, table.data td { padding: 6px 12px; text-align: left; border-bottom: 1px solid var(--gridline); }
table.data th { color: var(--text-secondary); font-weight: 600; }
table.data tr:last-child td { border-bottom: none; }
table.data td.num { text-align: right; font-variant-numeric: tabular-nums; }
.pass { color: var(--status-good); }
.fail { color: var(--status-critical); font-weight: 600; }
.chart-card {
  background: var(--surface-1); border: 1px solid var(--gridline);
  border-radius: 8px; padding: 12px 16px 8px; margin-bottom: 14px; max-width: 700px;
  position: relative;
}
.chart-card .t { font-size: 13px; font-weight: 600; }
.chart-card .s { font-size: 12px; color: var(--text-secondary); margin-bottom: 4px; }
.chart-card .s .viol { color: var(--status-critical); font-weight: 600; }
.legend { font-size: 12px; color: var(--text-secondary); margin: 4px 0 8px; }
.legend .sw { display: inline-block; width: 10px; height: 10px; border-radius: 2px; margin: 0 4px 0 12px; vertical-align: baseline; }
.legend .sw:first-child { margin-left: 0; }
.tooltip {
  position: absolute; pointer-events: none; display: none;
  background: var(--surface-1); border: 1px solid var(--axis); border-radius: 6px;
  padding: 4px 8px; font-size: 12px; color: var(--text-primary);
  box-shadow: 0 2px 6px rgba(0,0,0,0.12); white-space: nowrap; z-index: 2;
}
details { margin-top: 12px; }
details summary { cursor: pointer; color: var(--text-secondary); font-size: 13px; }
svg text { font-family: inherit; }
`

// writeTail closes the page, installing the nearest-point hover tooltip:
// each chart point carries its label in data-l; the crosshair picks the
// closest point by x within the plot. Charts without data-l points (or
// without a tooltip div) are skipped, so the script is safe on every page.
func writeTail(b *strings.Builder) {
	b.WriteString(`<script>
document.querySelectorAll('.chart-card').forEach(function (card) {
  var svg = card.querySelector('svg');
  var tip = card.querySelector('.tooltip');
  if (!svg || !tip) return;
  var pts = Array.prototype.slice.call(svg.querySelectorAll('circle[data-l]'));
  if (!pts.length) return;
  svg.addEventListener('mousemove', function (ev) {
    var rect = svg.getBoundingClientRect();
    var sx = svg.viewBox.baseVal.width / rect.width;
    var x = (ev.clientX - rect.left) * sx;
    var best = null, bd = 1e9;
    pts.forEach(function (p) {
      var d = Math.abs(parseFloat(p.getAttribute('cx')) - x);
      if (d < bd) { bd = d; best = p; }
    });
    if (!best || bd > 40) { tip.style.display = 'none'; return; }
    tip.textContent = best.getAttribute('data-l');
    tip.style.display = 'block';
    var cx = parseFloat(best.getAttribute('cx')) / sx;
    tip.style.left = Math.min(cx + 12, rect.width - 150) + 'px';
    tip.style.top = (parseFloat(best.getAttribute('cy')) / sx - 8) + 'px';
  });
  svg.addEventListener('mouseleave', function () { tip.style.display = 'none'; });
});
</script>
</body>
</html>
`)
}

// Chart geometry (SVG user units), shared by every step chart.
const (
	ChartW, ChartH = 660, 220
	PadL, PadR     = 62, 14
	PadT, PadB     = 14, 30
	PlotW          = ChartW - PadL - PadR
	PlotH          = ChartH - PadT - PadB
)

// StepPoint is one windowed sample: a horizontal segment over
// [StartUS, EndUS) at value V. Label is the hover tooltip text; Bad renders
// the point as a status-critical marker instead of an invisible hover
// target.
type StepPoint struct {
	StartUS, EndUS int64
	V              float64
	Label          string
	Bad            bool
}

// StepSeries is one step line on a chart. Color picks a categorical slot
// (1-6); Dashed renders the line dashed (predictions, references).
type StepSeries struct {
	Name   string
	Color  int
	Dashed bool
	Points []StepPoint
}

// Threshold draws a dashed annotation line with a right-edge label.
type Threshold struct {
	Label string
	V     float64
}

// StepChart renders windowed series as step lines: one horizontal segment
// per window, joined while windows are contiguous, broken across no-data
// gaps. SubHTML (already-escaped) is the card's secondary line; Fmt formats
// y-axis values; ClampZero pins the y floor at zero when every value and
// threshold is non-negative.
type StepChart struct {
	Title      string
	SubHTML    string
	Series     []StepSeries
	Thresholds []Threshold
	Fmt        func(float64) string
	ClampZero  bool
}

// WriteStepChart renders the chart card: title, legend (multi-series only),
// gridlines and ticks, threshold annotations, the step lines, and hover /
// violation markers with tooltip labels.
func WriteStepChart(b *strings.Builder, c StepChart) {
	fmtV := c.Fmt
	if fmtV == nil {
		fmtV = TrimFloat
	}
	var all []StepPoint
	for _, s := range c.Series {
		all = append(all, s.Points...)
	}
	if len(all) == 0 {
		return
	}

	// Scales: x spans the union of windows, y spans values plus thresholds
	// with an 8% pad; near-zero floors anchor at zero for readability.
	t0, t1 := math.Inf(1), math.Inf(-1)
	lo, hi := all[0].V, all[0].V
	for _, p := range all {
		t0 = math.Min(t0, float64(p.StartUS)/1e6)
		t1 = math.Max(t1, float64(p.EndUS)/1e6)
		lo, hi = math.Min(lo, p.V), math.Max(hi, p.V)
	}
	if t1 <= t0 {
		t1 = t0 + 1
	}
	for _, th := range c.Thresholds {
		lo, hi = math.Min(lo, th.V), math.Max(hi, th.V)
	}
	if lo > 0 && lo < hi*0.5 {
		lo = 0
	}
	if hi == lo {
		hi = lo + 1
	}
	pad := (hi - lo) * 0.08
	lo, hi = lo-pad, hi+pad
	if c.ClampZero && lo < 0 {
		lo = 0
	}
	xOf := func(t float64) float64 { return PadL + (t-t0)/(t1-t0)*PlotW }
	yOf := func(v float64) float64 { return PadT + (hi-v)/(hi-lo)*PlotH }

	fmt.Fprintf(b, "<div class=\"chart-card\"><div class=\"t\">%s</div>\n", html.EscapeString(c.Title))
	if c.SubHTML != "" {
		fmt.Fprintf(b, "<div class=\"s\">%s</div>\n", c.SubHTML)
	}
	if len(c.Series) > 1 {
		b.WriteString("<div class=\"legend\">")
		for _, s := range c.Series {
			fmt.Fprintf(b, "<span class=\"sw\" style=\"background:var(--series-%d)\"></span>%s",
				colorSlot(s.Color), html.EscapeString(s.Name))
		}
		b.WriteString("</div>\n")
	}

	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"%s over virtual time\">\n",
		ChartW, ChartH, html.EscapeString(c.Title))

	// Recessive horizontal gridlines + y tick labels (muted ink).
	for _, tv := range NiceTicks(lo, hi, 4) {
		y := yOf(tv)
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"var(--gridline)\" stroke-width=\"1\"/>\n",
			PadL, y, ChartW-PadR, y)
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%.1f\" fill=\"var(--text-muted)\" font-size=\"11\" text-anchor=\"end\">%s</text>\n",
			PadL-6, y+4, html.EscapeString(fmtV(tv)))
	}
	// Baseline axis + x tick labels.
	fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"var(--axis)\" stroke-width=\"1\"/>\n",
		PadL, ChartH-PadB, ChartW-PadR, ChartH-PadB)
	for _, tv := range NiceTicks(t0, t1, 5) {
		x := xOf(tv)
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%d\" fill=\"var(--text-muted)\" font-size=\"11\" text-anchor=\"middle\">%s</text>\n",
			x, ChartH-PadB+16, html.EscapeString(FmtSecs(tv)))
	}

	// Threshold lines: dashed, secondary ink (annotations, not series),
	// labeled at the right edge.
	for _, th := range c.Thresholds {
		y := yOf(th.V)
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"var(--text-muted)\" stroke-width=\"1\" stroke-dasharray=\"5 4\"/>\n",
			PadL, y, ChartW-PadR, y)
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%.1f\" fill=\"var(--text-secondary)\" font-size=\"11\" text-anchor=\"end\">%s</text>\n",
			ChartW-PadR, y-4, html.EscapeString(th.Label))
	}

	// Step lines.
	for _, s := range c.Series {
		var path strings.Builder
		prevEnd := int64(math.MinInt64)
		for _, p := range s.Points {
			x0, x1 := xOf(float64(p.StartUS)/1e6), xOf(float64(p.EndUS)/1e6)
			y := yOf(p.V)
			if p.StartUS == prevEnd {
				fmt.Fprintf(&path, "L%.1f %.1f L%.1f %.1f ", x0, y, x1, y)
			} else {
				fmt.Fprintf(&path, "M%.1f %.1f L%.1f %.1f ", x0, y, x1, y)
			}
			prevEnd = p.EndUS
		}
		dash := ""
		if s.Dashed {
			dash = " stroke-dasharray=\"6 4\""
		}
		fmt.Fprintf(b, "<path d=\"%s\" fill=\"none\" stroke=\"var(--series-%d)\" stroke-width=\"2\" stroke-linejoin=\"round\"%s/>\n",
			strings.TrimSpace(path.String()), colorSlot(s.Color), dash)
	}

	// Hover targets at window midpoints (invisible until hovered via the
	// tooltip script; bad windows get a visible critical marker with a 2px
	// surface ring).
	for _, s := range c.Series {
		for _, p := range s.Points {
			xm := xOf((float64(p.StartUS) + float64(p.EndUS)) / 2e6)
			y := yOf(p.V)
			if p.Bad {
				fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"6\" fill=\"var(--surface-1)\"/>\n", xm, y)
				fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"4\" fill=\"var(--status-critical)\" data-l=\"%s\"><title>%s</title></circle>\n",
					xm, y, html.EscapeString(p.Label), html.EscapeString(p.Label))
			} else {
				fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"8\" fill=\"transparent\" data-l=\"%s\"><title>%s</title></circle>\n",
					xm, y, html.EscapeString(p.Label), html.EscapeString(p.Label))
			}
		}
	}
	b.WriteString("</svg>\n<div class=\"tooltip\"></div>\n</div>\n")
}

func colorSlot(c int) int {
	if c < 1 || c > 6 {
		return 1
	}
	return c
}

// FmtBytes renders a byte quantity with binary divisors and the matching
// IEC unit names, e.g. "410.0 MiB".
func FmtBytes(v float64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case math.Abs(v) >= gib:
		return fmt.Sprintf("%.2f GiB", v/gib)
	case math.Abs(v) >= mib:
		return fmt.Sprintf("%.1f MiB", v/mib)
	case math.Abs(v) >= kib:
		return fmt.Sprintf("%.1f KiB", v/kib)
	}
	return fmt.Sprintf("%.0f B", v)
}

// FmtRate renders a bytes/sec rate, e.g. "412.5 MiB/s".
func FmtRate(r float64) string { return FmtBytes(r) + "/s" }

// FmtPct renders a 0-1 fraction as a percentage, dropping a zero decimal
// ("50%", "46.2%") — the HTML reports' form.
func FmtPct(v float64) string {
	p := v * 100
	if p == math.Trunc(p) {
		return fmt.Sprintf("%.0f%%", p)
	}
	return fmt.Sprintf("%.1f%%", p)
}

// FmtPctFixed renders a 0-1 fraction with exactly one decimal ("50.0%",
// "46.2%") — the text tables' form, which keeps a column's digits aligned.
// Both forms are pinned by their outputs' goldens, so both exist.
func FmtPctFixed(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// FmtSecs renders a duration in seconds.
func FmtSecs(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0fs", v)
	}
	return fmt.Sprintf("%.2fs", v)
}

// TrimFloat renders with at most three decimals, trailing zeros trimmed.
func TrimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// NiceTicks returns ~n round-valued ticks inside [lo, hi].
func NiceTicks(lo, hi float64, n int) []float64 {
	if hi <= lo || n < 1 {
		return nil
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch frac := raw / mag; {
	case frac <= 1:
		step = mag
	case frac <= 2:
		step = 2 * mag
	case frac <= 5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step*1e-9; t += step {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}
