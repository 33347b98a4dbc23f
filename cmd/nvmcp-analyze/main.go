// Command nvmcp-analyze inspects the workload specifications: the Table IV
// chunk-size distribution, the per-chunk modification schedule (the input to
// the DCPCP prediction table), and the derived pre-copy parameters for a
// given NVM bandwidth.
//
// Usage:
//
//	nvmcp-analyze [-bw 400e6] [-interval 40s] [-json] [app ...]
//	nvmcp-analyze -diff baseline.json new.json [-tolerance 0.05]
//
// The -diff form compares two SLO run reports (written by nvmcp-sim
// -slo-report-out) objective by objective and exits non-zero when the new
// run regressed against the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nvmcp/internal/drift"
	"nvmcp/internal/experiments"
	"nvmcp/internal/model"
	"nvmcp/internal/report"
	"nvmcp/internal/slo"
	"nvmcp/internal/workload"
)

func main() {
	bw := flag.Float64("bw", 400e6, "effective NVM bandwidth per core, bytes/sec")
	interval := flag.Duration("interval", 40*time.Second, "local checkpoint interval")
	rbw := flag.Float64("rbw", 0, "effective remote bandwidth per core, bytes/sec (0 = local tier only)")
	intervalRemote := flag.Duration("interval-remote", 0, "remote checkpoint interval (0 = same as -interval)")
	tcompute := flag.Duration("tcompute", time.Hour, "total compute time for the efficiency prediction")
	mtbfLocal := flag.Duration("mtbf-local", 0, "mean time between soft failures (0 = failure-free)")
	mtbfRemote := flag.Duration("mtbf-remote", 0, "mean time between hard failures (0 = failure-free)")
	asJSON := flag.Bool("json", false, "emit the analysis as JSON instead of tables")
	out := flag.String("o", "", "write the analysis to this file instead of stdout")
	diffMode := flag.Bool("diff", false, "compare two SLO run reports: -diff baseline.json new.json")
	tolerance := flag.Float64("tolerance", 0.05,
		"with -diff, relative headroom erosion allowed before a passing objective counts as regressed")
	flag.Parse()

	if *diffMode {
		os.Exit(runDiff(flag.Args(), *tolerance, *asJSON))
	}

	apps := flag.Args()
	var specs []workload.AppSpec
	if len(apps) == 0 {
		specs = workload.Specs()
	} else {
		for _, name := range apps {
			spec, ok := workload.SpecByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown app %q\n", name)
				os.Exit(2)
			}
			specs = append(specs, spec)
		}
	}

	params := model.Params{
		TCompute:        *tcompute,
		MTBFLocal:       *mtbfLocal,
		MTBFRemote:      *mtbfRemote,
		IntervalLocal:   *interval,
		IntervalRemote:  *intervalRemote,
		NVMBWPerCore:    *bw,
		RemoteBWPerCore: *rbw,
	}

	render := func(w io.Writer) error {
		if *asJSON {
			rows := make([]appAnalysis, len(specs))
			for i, spec := range specs {
				rows[i] = analyzeJSON(spec, params)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rows)
		}
		if len(apps) == 0 {
			experiments.PrintTable4(w, experiments.RunTable4())
			fmt.Fprintln(w)
		}
		for _, spec := range specs {
			analyze(w, spec, *bw, *interval)
			fmt.Fprintln(w)
		}
		return nil
	}

	if *out == "" {
		if err := render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := report.WriteFile(*out, render); err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-analyze: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote analysis -> %s\n", *out)
}

// runDiff compares two SLO run reports and returns the process exit code:
// 0 clean, 1 regression, 2 usage or I/O error.
func runDiff(args []string, tolerance float64, asJSON bool) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nvmcp-analyze -diff baseline.json new.json [-tolerance 0.05]")
		return 2
	}
	a, err := report.ReadFile[slo.Report]("slo", args[0], slo.SchemaVersion)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-analyze: baseline: %v\n", err)
		return 2
	}
	b, err := report.ReadFile[slo.Report]("slo", args[1], slo.SchemaVersion)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-analyze: new report: %v\n", err)
		return 2
	}
	res := slo.Diff(a, b, tolerance)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		fmt.Printf("slo diff: %s (%s seed %d) -> %s (%s seed %d), tolerance %.0f%%\n",
			args[0], a.Scenario, a.Seed, args[1], b.Scenario, b.Seed, tolerance*100)
		tb := &report.Table{Header: []string{"objective", "verdict", "baseline", "new", "detail"}}
		for _, e := range res.Entries {
			tb.AddRow(e.Objective, e.Verdict, fmtPtr(e.AValue), fmtPtr(e.BValue), e.Detail)
		}
		tb.Write(os.Stdout)
	}
	if res.Regressed {
		fmt.Fprintln(os.Stderr, "nvmcp-analyze: SLO regression against baseline")
		return 1
	}
	return 0
}

func fmtPtr(v *float64) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf("%g", *v)
}

// appAnalysis is the machine-readable form of one workload's analysis: the
// chunk profile plus the §III closed-form predictions (t_lcl, t_rmt, T_p,
// efficiency) that the drift observatory uses as its declared baseline.
// The two must agree — the cross-check test holds this export to
// drift.BaselineFor on identical inputs.
type appAnalysis struct {
	App            string  `json:"app"`
	Chunks         int     `json:"chunks"`
	CheckpointSize int64   `json:"checkpoint_size"`
	IntervalUS     int64   `json:"interval_us"`
	BWPerCore      float64 `json:"bw_per_core"`
	ThresholdUS    int64   `json:"threshold_us"`
	HotChunks      int     `json:"hot_chunks"`
	TLclUS         int64   `json:"t_lcl_us"`
	TRmtUS         int64   `json:"t_rmt_us,omitempty"`
	Efficiency     float64 `json:"efficiency"`
}

func analyzeJSON(spec workload.AppSpec, p model.Params) appAnalysis {
	p.CkptSize = spec.CheckpointSize()
	b := drift.BaselineFor(drift.Inputs{Params: p, Ranks: 1})
	tp := time.Duration(b.PrecopyTpUS) * time.Microsecond
	return appAnalysis{
		App:            spec.Name,
		Chunks:         len(spec.Chunks),
		CheckpointSize: spec.CheckpointSize(),
		IntervalUS:     p.IntervalLocal.Microseconds(),
		BWPerCore:      p.NVMBWPerCore,
		ThresholdUS:    b.PrecopyTpUS,
		HotChunks:      hotChunks(spec, p.IntervalLocal, tp),
		TLclUS:         b.TLclUS,
		TRmtUS:         b.TRmtUS,
		Efficiency:     b.Efficiency,
	}
}

// hotChunks counts chunks still being modified past the pre-copy threshold
// (the ones DCPCP intentionally leaves for the checkpoint).
func hotChunks(spec workload.AppSpec, interval, tp time.Duration) int {
	hot := 0
	for _, c := range spec.Chunks {
		for _, ph := range c.ModPhases {
			if time.Duration(ph*float64(interval)) > tp {
				hot++
				break
			}
		}
	}
	return hot
}

func analyze(w io.Writer, spec workload.AppSpec, bw float64, interval time.Duration) {
	fmt.Fprintf(w, "== %s: %d chunks, %s checkpoint data per rank ==\n",
		spec.Name, len(spec.Chunks), report.FmtBytes(float64(spec.CheckpointSize())))
	tb := &report.Table{Header: []string{"chunk", "size", "modifications per iteration"}}
	for _, c := range spec.Chunks {
		sched := "init only"
		if !c.InitOnly {
			parts := make([]string, len(c.ModPhases))
			for i, ph := range c.ModPhases {
				parts[i] = fmt.Sprintf("%.0f%%", ph*100)
			}
			sched = fmt.Sprintf("%dx at %s of interval", len(c.ModPhases), strings.Join(parts, ", "))
		}
		tb.AddRow(c.Name, report.FmtBytes(float64(c.Size)), sched)
	}
	tb.Write(w)

	tp := model.PreCopyThreshold(interval, spec.CheckpointSize(), bw)
	fmt.Fprintf(w, "pre-copy parameters at %s/core, I=%v: T_c=%v, threshold T_p=%v (%.0f%% of interval)\n",
		report.FmtRate(bw), interval,
		(interval - tp).Round(time.Millisecond), tp.Round(time.Millisecond),
		float64(tp)/float64(interval)*100)
	fmt.Fprintf(w, "chunks modified after the threshold (hot, DCPCP holds them): %d\n",
		hotChunks(spec, interval, tp))
}
