// Command e2e is the repository's end-to-end benchmark. It drives the public
// path a user takes — scenario → cluster.FromScenario → cluster.New →
// Execute — over four workloads, times each call from outside the program,
// checks every run for correctness, and prints every metric by name and
// unit. Time metrics are scaled by a reference kernel run beside them, so
// they read as seconds on the reference host. A separate traced pass and
// timed probes of each layer's public functions split the cost by layer.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/e2e/run.sh -seed 42 -out result.json          # every workload
//	bash bench/e2e/run.sh --workload gtc-paper --seconds 20 --trace 0
//	bash bench/e2e/run.sh -compare base.json change.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See README.md for the metrics, the workloads and how to read the output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// tracedSeconds is the traced pass's length in a fixed-count invocation;
// every pass makes at least one run.
const tracedSeconds = 5

// hostFacts describe where and how the result was measured.
type hostFacts struct {
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	RefNominalS     float64 `json:"ref_nominal_s"`
	InvocationWallS float64 `json:"invocation_wall_s"`
}

// workloadResult is one workload's measurements.
type workloadResult struct {
	Name       string   `json:"name"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	Problems   []string `json:"problems,omitempty"`
	// RefSamplesS are the raw reference-kernel samples behind the scaling.
	RefSamplesS []float64  `json:"ref_samples_s"`
	RefMedianS  float64    `json:"ref_median_s"`
	EndToEnd    *endToEnd  `json:"end_to_end,omitempty"`
	Layers      *layerPass `json:"layers,omitempty"`
}

// result is a whole invocation, as written by -out and read by -compare.
type result struct {
	Seed      int64            `json:"seed"`
	Host      hostFacts        `json:"host"`
	Workloads []workloadResult `json:"workloads"`
	Probes    probeResults     `json:"probes,omitempty"`
}

func (r result) workload(name string) (workloadResult, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("workload", "all", "workload to run ("+strings.Join(names, ", ")+") or all")
	seed := fs.Int64("seed", defaultSeed, "input seed; 42 reproduces the presets exactly")
	seconds := fs.Float64("seconds", 0, "length of each measured pass in seconds (0: each workload's fixed run count)")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	cmp := fs.Bool("compare", false, "compare two -out files: -compare base.json change.json")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "e2e: %v\n", err)
		return 1
	}

	if *cmp {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result files"))
		}
		bounds, err := readBounds(*benchPath)
		if err != nil {
			return fail(err)
		}
		a, err := readResult(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResult(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compare(stdout, a, b, bounds) {
			return 1
		}
		return 0
	}

	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds < 0 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *which != "all" {
		w, ok := workloadByName(*which)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (valid: %s, all)", *which, strings.Join(names, ", ")))
		}
		selected = []workload{w}
	}

	start := time.Now()
	res := result{Seed: *seed, Host: hostFacts{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		RefNominalS: refNominalS,
	}}
	fmt.Fprintf(stdout, "e2e: seed %d, nproc %d, GOMAXPROCS %d, %s, ref_nominal_s %g\n",
		res.Seed, res.Host.NProc, res.Host.GOMAXPROCS, res.Host.GoVersion, refNominalS)
	for _, w := range selected {
		wr, err := measure(w, *seed, *seconds, *trace)
		if err != nil {
			return fail(err)
		}
		printWorkload(stdout, wr)
		res.Workloads = append(res.Workloads, wr)
	}
	if *trace != 0 {
		p, err := runProbes(1)
		if err != nil {
			return fail(err)
		}
		res.Probes = p
		printProbes(stdout, p)
	}
	res.Host.InvocationWallS = time.Since(start).Seconds()

	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fail(fmt.Errorf("write result: %w", err))
		}
	}
	line, err := json.Marshal(summaryLine(res, len(selected) > 1))
	if err != nil {
		return fail(fmt.Errorf("summary line: %w", err))
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs one workload's session: the end-to-end pass unless trace is
// 1, the traced pass unless trace is 0.
func measure(w workload, seed int64, seconds float64, trace int) (workloadResult, error) {
	s, err := newSession(w, seed)
	if err != nil {
		return workloadResult{}, err
	}
	wr := workloadResult{Name: w.name}
	untracedWall := 0.0
	if trace != 1 {
		e, err := s.measureEndToEnd(budget{runs: w.runs, seconds: seconds, minRuns: minTimedRuns})
		if err != nil {
			return wr, err
		}
		wr.EndToEnd = &e
		untracedWall = e.RawWallMedianS
	}
	if trace != 0 {
		if untracedWall == 0 {
			runs, err := s.timedRuns(budget{runs: max(1, w.runs/4), seconds: seconds / 2}, false)
			if err != nil {
				return wr, err
			}
			walls := make([]float64, len(runs))
			for i, r := range runs {
				walls[i] = r.wall.Seconds()
			}
			untracedWall = median(walls)
		}
		b := budget{seconds: tracedSeconds}
		if seconds > 0 {
			b.seconds = seconds / 2
		}
		lp, err := s.measureLayers(b, untracedWall)
		if err != nil {
			return wr, err
		}
		wr.Layers = &lp
	}
	wr.Attempted, wr.Failed, wr.Problems = s.attempted, s.failed, s.problems
	wr.FailedFrac = float64(s.failed) / float64(s.attempted)
	wr.RefSamplesS, wr.RefMedianS = s.refs, median(s.refs)
	return wr, nil
}

// lineMetric is one metric of the summary line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line of standard output: the correctness tally
// and the median of every end-to-end metric, or the value of every
// per-layer metric, that the invocation measured. With several workloads
// the names are prefixed "<workload>.".
func summaryLine(r result, prefixed bool) any {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{Metrics: map[string]lineMetric{}}
	for _, w := range r.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		prefix := ""
		if prefixed {
			prefix = w.Name + "."
		}
		if e := w.EndToEnd; e != nil {
			for _, m := range e2eMetrics {
				line.Metrics[prefix+m.name] = lineMetric{e.Metrics[m.name].Median, m.unit}
			}
		}
		if l := w.Layers; l != nil {
			for name, v := range l.values() {
				line.Metrics[prefix+name] = lineMetric{v, layerUnit(name)}
			}
		}
	}
	for name, v := range r.Probes {
		line.Metrics[name] = lineMetric{v, layerUnit(name)}
	}
	line.Correct = line.Failed == 0
	return line
}

func printWorkload(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d runs checked, %d failed (failed_frac %.3g); reference median %.2f ms over %d samples\n",
		r.Name, r.Attempted, r.Failed, r.FailedFrac, 1e3*r.RefMedianS, len(r.RefSamplesS))
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	if e := r.EndToEnd; e != nil {
		fmt.Fprintf(w, "%-14s %-9s %12s %12s %12s %18s %5s\n", "metric", "unit", "median", "q1", "q3", "high percentile", "n")
		for _, m := range e2eMetrics {
			st := e.Metrics[m.name]
			high := "-"
			if st.PHighPct > 0 {
				high = fmt.Sprintf("p%g %.6g", st.PHighPct, st.PHigh)
			}
			fmt.Fprintf(w, "%-14s %-9s %12.6g %12.6g %12.6g %18s %5d\n",
				m.name, m.unit, st.Median, st.Q1, st.Q3, high, st.N)
		}
		fmt.Fprintf(w, "raw medians: wall %.4f s, set-up %.4f s\n", e.RawWallMedianS, e.RawSetupMedianS)
	}
	if l := r.Layers; l != nil {
		fmt.Fprintf(w, "layers (traced pass: %d runs, %d CPU samples, tracing overhead %+.1f%%)\n",
			l.Runs, l.CPUSamples, 100*l.OverheadFrac)
		fmt.Fprintf(w, "  %-13s %9s %12s\n", "layer", "cpu_frac", "alloc_mb/run")
		byCPU := append([]string(nil), layerNames...)
		sort.SliceStable(byCPU, func(i, j int) bool { return l.CPUFrac[byCPU[i]] > l.CPUFrac[byCPU[j]] })
		for _, name := range byCPU {
			if l.CPUFrac[name] == 0 && l.AllocMB[name] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-13s %8.1f%% %12.3f\n", name, 100*l.CPUFrac[name], l.AllocMB[name])
		}
		fmt.Fprintln(w, "work counts (per run):")
		for _, name := range workCountNames {
			fmt.Fprintf(w, "  %-24s %14.6g %s\n", name, l.WorkCounts[name], layerUnit(name))
		}
	}
}

func printProbes(w io.Writer, p probeResults) {
	fmt.Fprintf(w, "\nlayer probes (ns/op scaled to the reference host)\n")
	fmt.Fprintf(w, "  %-26s %12s %12s\n", "probe", "ns/op", "allocs/op")
	for _, pr := range probes {
		fmt.Fprintf(w, "  %-26s %12.1f %12.2f\n", pr.name, p[pr.name], p[allocsName(pr.name)])
	}
}
