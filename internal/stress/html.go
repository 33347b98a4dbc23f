package stress

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"nvmcp/internal/report"
)

// WriteHTML renders the report as a single self-contained page: run
// metadata, the survivability verdicts, MTTR and availability curves over
// fleet size (one line per severity × placement series), and the full cell
// table. No external assets, no wall-clock content — the output is
// byte-stable for a deterministic run. The palette and page chrome come
// from internal/report.
func WriteHTML(w io.Writer, rep Report) error {
	return report.WritePage(w, "stress", "Fleet stress report", func(b *strings.Builder) {
		id := rep.Meta
		id.Tool = "tool " + id.Tool
		id.WriteTitle(b, "Fleet stress report", fmt.Sprintf(" · %d cell(s)", len(rep.Cells)))
		writeSurvivability(b, rep)
		writeCurves(b, rep)
		writeCellTable(b, rep)
	})
}

func writeSurvivability(b *strings.Builder, rep Report) {
	if len(rep.Survivability) == 0 {
		return
	}
	b.WriteString("<h2>Survivability</h2>\n")
	for _, s := range rep.Survivability {
		if s == nil {
			continue
		}
		cls, mark := "ok", "✓"
		if !s.ZoneSurvivable {
			cls, mark = "bad", "✗"
		}
		fmt.Fprintf(b, "<div class=\"verdict %s\">%s %s</div>\n", cls, mark, html.EscapeString(s.Verdict()))
		b.WriteString("<table class=\"data\"><tr><th>level</th><th>domains</th><th>at-risk nodes</th><th>worst domain</th><th>verdict</th></tr>\n")
		for _, lvl := range s.Levels {
			worst := "—"
			if len(lvl.Risks) > 0 {
				w := lvl.Risks[0]
				for _, r := range lvl.Risks[1:] {
					if r.AtRisk > w.AtRisk {
						w = r
					}
				}
				worst = fmt.Sprintf("%s (%d)", w.Domain, w.AtRisk)
			}
			verdict := "<span class=\"pass\">survivable</span>"
			if !lvl.Survivable {
				verdict = "<span class=\"fail\">data loss</span>"
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(lvl.Level), lvl.Domains, lvl.AtRiskNodes, html.EscapeString(worst), verdict)
		}
		b.WriteString("</table>\n")
	}
}

// seriesKey groups cells into chart lines.
func seriesKey(c Cell) string {
	if c.Placement == "" {
		return c.Severity
	}
	return c.Severity + "/" + c.Placement
}

func writeCurves(b *strings.Builder, rep Report) {
	if len(rep.Cells) == 0 {
		return
	}
	sizes := uniqueSizes(rep.Cells)
	b.WriteString("<h2>Curves over fleet size</h2>\n")
	writeChart(b, rep, sizes, "MTTR (s)", func(c Cell) float64 { return c.MTTRSecs })
	writeChart(b, rep, sizes, "Availability (%)", func(c Cell) float64 { return c.AvailabilityPct })
}

func uniqueSizes(cells []Cell) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range cells {
		if !seen[c.FleetNodes] {
			seen[c.FleetNodes] = true
			out = append(out, c.FleetNodes)
		}
	}
	sort.Ints(out)
	return out
}

// writeChart renders one categorical-x line chart: x positions are the
// sorted unique fleet sizes, one polyline per (severity, placement) series,
// colors from the shared categorical palette slots.
func writeChart(b *strings.Builder, rep Report, sizes []int, title string, value func(Cell) float64) {
	const w, h = 680, 240
	const ml, mr, mt, mb = 56, 16, 12, 32
	iw, ih := float64(w-ml-mr), float64(h-mt-mb)

	series := map[string][]Cell{}
	var names []string
	for _, c := range rep.Cells {
		k := seriesKey(c)
		if _, ok := series[k]; !ok {
			names = append(names, k)
		}
		series[k] = append(series[k], c)
	}
	sort.Strings(names)

	ymin, ymax := 0.0, 0.0
	first := true
	for _, c := range rep.Cells {
		v := value(c)
		if first || v < ymin {
			ymin = v
		}
		if first || v > ymax {
			ymax = v
		}
		first = false
	}
	pad := (ymax - ymin) * 0.15
	if pad == 0 {
		pad = 1
	}
	ymin -= pad
	ymax += pad
	if ymin < 0 {
		ymin = 0
	}

	xpos := func(size int) float64 {
		for i, s := range sizes {
			if s == size {
				if len(sizes) == 1 {
					return float64(ml) + iw/2
				}
				return float64(ml) + iw*float64(i)/float64(len(sizes)-1)
			}
		}
		return float64(ml)
	}
	ypos := func(v float64) float64 {
		return float64(mt) + ih*(1-(v-ymin)/(ymax-ymin))
	}

	fmt.Fprintf(b, "<div class=\"chart-card\"><div class=\"t\">%s</div>\n", html.EscapeString(title))
	b.WriteString("<div class=\"legend\">")
	for i, name := range names {
		fmt.Fprintf(b, "<span class=\"sw\" style=\"background:var(--series-%d)\"></span>%s",
			i%6+1, html.EscapeString(name))
	}
	b.WriteString("</div>\n")
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"100%%\" role=\"img\">\n", w, h)
	// Gridlines + y labels at min/mid/max.
	for _, v := range []float64{ymin, (ymin + ymax) / 2, ymax} {
		y := ypos(v)
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"var(--gridline)\"/>\n", ml, y, w-mr, y)
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%.1f\" font-size=\"10\" fill=\"var(--text-muted)\" text-anchor=\"end\">%s</text>\n",
			ml-6, y+3, report.TrimFloat(v))
	}
	// X labels: the fleet sizes.
	for _, s := range sizes {
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%d\" font-size=\"10\" fill=\"var(--text-muted)\" text-anchor=\"middle\">%d</text>\n",
			xpos(s), h-mb+16, s)
	}
	fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"var(--axis)\"/>\n", ml, h-mb, w-mr, h-mb)
	for i, name := range names {
		cells := append([]Cell(nil), series[name]...)
		sort.Slice(cells, func(a, b int) bool { return cells[a].FleetNodes < cells[b].FleetNodes })
		color := fmt.Sprintf("var(--series-%d)", i%6+1)
		var pts []string
		for _, c := range cells {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xpos(c.FleetNodes), ypos(value(c))))
		}
		if len(pts) > 1 {
			fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n",
				strings.Join(pts, " "), color)
		}
		for _, c := range cells {
			fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"%s\"><title>%s @ %d nodes: %s</title></circle>\n",
				xpos(c.FleetNodes), ypos(value(c)), color,
				html.EscapeString(name), c.FleetNodes, report.TrimFloat(value(c)))
		}
	}
	b.WriteString("</svg></div>\n")
}

func writeCellTable(b *strings.Builder, rep Report) {
	if len(rep.Cells) == 0 {
		return
	}
	b.WriteString("<h2>Cells</h2>\n<table class=\"data\">\n")
	b.WriteString("<tr><th>name</th><th>fleet</th><th>topology</th><th>severity</th><th>placement</th><th>MTTR (s)</th><th>avail (%)</th><th>local</th><th>remote</th><th>bottom</th><th>lost</th><th>checksum</th></tr>\n")
	for _, c := range rep.Cells {
		check := "—"
		if c.ChecksumOK != nil {
			if *c.ChecksumOK {
				check = "<span class=\"pass\">match</span>"
			} else {
				check = "<span class=\"fail\">MISMATCH</span>"
			}
		}
		lost := fmt.Sprintf("%d", c.RecoveryLost)
		if c.RecoveryLost > 0 {
			lost = fmt.Sprintf("<span class=\"fail\">%d</span>", c.RecoveryLost)
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td>%s</td></tr>\n",
			html.EscapeString(c.Name), c.FleetNodes, html.EscapeString(c.Topology),
			html.EscapeString(c.Severity), html.EscapeString(c.Placement),
			report.TrimFloat(c.MTTRSecs), report.TrimFloat(c.AvailabilityPct),
			c.RecoveryLocal, c.RecoveryRemote, c.RecoveryBottom, lost, check)
	}
	b.WriteString("</table>\n")
}
