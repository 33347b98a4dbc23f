package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/obs"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
)

// Fig10Result is the peak-interconnect-usage experiment: per-window
// checkpoint bytes over the run's timeline for burst vs pre-copy remote
// checkpointing, plus the peaks.
type Fig10Result struct {
	App    string
	Scale  Scale
	Window time.Duration

	BurstSeries []float64
	PreSeries   []float64
	BurstPeak   float64
	PrePeak     float64
	// PeakReduction is 1 - PrePeak/BurstPeak (the paper reports up to 46%
	// reduced peak interconnect usage, with pre-copy's peak about half).
	PeakReduction float64
}

// RunFig10 reproduces Figure 10 from the fig10 preset: LAMMPS with remote
// checkpoints, comparing the interconnect usage timeline of the asynchronous
// burst and the pre-copy helper. The series are checkpoint bytes transferred
// per window.
func RunFig10(scale Scale) Fig10Result {
	window := 10 * time.Second
	if scale == Quick {
		window = 5 * time.Second
	}
	sc := preset("fig10", scale)
	pre := lower(sc)
	sc.Remote = scenario.RemoteSpec{Policy: "buddy-burst", Every: sc.Remote.Every}
	burst := lower(sc)

	run := func(cfg cluster.Config) (series []float64, peak float64) {
		res, c := cluster.MustRun(cfg)
		end := res.ExecTime
		// Read the fabric's cumulative checkpoint series through the obs
		// registry — the same timeline every other sink sees.
		tl := c.Obs.Registry().Timeline("fabric_bytes", obs.Labels{"class": interconnect.ClassCkpt.String()})
		series = tl.DiffBuckets(end, window)
		peak, _ = tl.PeakDiffBucket(end, window)
		return series, peak
	}

	burstSeries, burstPeak := run(burst)
	preSeries, prePeak := run(pre)
	red := 0.0
	if burstPeak > 0 {
		red = 1 - prePeak/burstPeak
	}
	return Fig10Result{
		App:           sc.Workload.App,
		Scale:         scale,
		Window:        window,
		BurstSeries:   burstSeries,
		PreSeries:     preSeries,
		BurstPeak:     burstPeak,
		PrePeak:       prePeak,
		PeakReduction: red,
	}
}

// PrintFig10 renders the two timelines side by side with sparkline bars.
func PrintFig10(w io.Writer, r Fig10Result) {
	fmt.Fprintf(w, "== Peak interconnect usage, %s (%s scale), %v windows ==\n", r.App, r.Scale, r.Window)
	max := r.BurstPeak
	if r.PrePeak > max {
		max = r.PrePeak
	}
	n := len(r.BurstSeries)
	if len(r.PreSeries) > n {
		n = len(r.PreSeries)
	}
	tb := &report.Table{Header: []string{"t", "burst", "", "pre-copy", ""}}
	for i := 0; i < n; i++ {
		var b, p float64
		if i < len(r.BurstSeries) {
			b = r.BurstSeries[i]
		}
		if i < len(r.PreSeries) {
			p = r.PreSeries[i]
		}
		tb.AddRow(
			(time.Duration(i) * r.Window).String(),
			report.FmtBytes(b), bar(b, max),
			report.FmtBytes(p), bar(p, max),
		)
	}
	tb.Write(w)
	fmt.Fprintf(w, "peak: burst %s, pre-copy %s — reduction %s (paper: up to 46%%, peak roughly halved)\n",
		report.FmtBytes(r.BurstPeak), report.FmtBytes(r.PrePeak), report.FmtPctFixed(r.PeakReduction))
}

func bar(v, max float64) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * 30)
	return strings.Repeat("#", n)
}
