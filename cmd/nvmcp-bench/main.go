// Command nvmcp-bench regenerates the paper's tables and figures from the
// simulation harness. Each experiment prints the same rows or series the
// paper reports; pass -scale paper for the full 48-rank configuration of the
// evaluation (slower) or keep the default quick scale for a fast pass that
// preserves every shape. Pass -json for machine-readable results.
//
// Usage:
//
//	nvmcp-bench [-scale quick|paper] [-json] [experiment ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"nvmcp/internal/experiments"
	"nvmcp/internal/introspect"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/stress"
)

// benchRecord is the per-scenario machine-readable envelope written to
// BENCH_<scenario>.json: which experiment ran, at what scale, how long the
// host took, and the experiment's full result struct (which carries the
// virtual times, bytes moved and peak bandwidths the scenario reports).
type benchRecord struct {
	Scenario string  `json:"scenario"`
	Scale    string  `json:"scale"`
	WallMS   float64 `json:"wall_ms"`
	Result   any     `json:"result"`
}

// benchReport is the aggregate written by -report-out.
type benchReport struct {
	Tool      string        `json:"tool"`
	Scale     string        `json:"scale"`
	Scenarios []benchRecord `json:"scenarios"`
}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
	list := flag.Bool("list", false, "list experiment names and exit")
	asJSON := flag.Bool("json", false, "emit results as JSON (combined on stdout, plus one BENCH_<scenario>.json per experiment)")
	jsonDir := flag.String("json-dir", ".", "directory for BENCH_<scenario>.json files")
	reportOut := flag.String("report-out", "", "write an aggregate report JSON of every scenario run to this file")
	stressOut := flag.String("stress-out", "", "write the fleet experiment's stress report to <path>.html and <path>.json")
	httpAddr := flag.String("http", "", "serve live introspection (/healthz /progress, pprof) on this address, e.g. :8080")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the experiments, while their results are still reachable")
	flag.Usage = usage
	flag.Parse()

	// The bench drives many short-lived simulations, so the introspection
	// server carries no single observer — it reports which experiment is
	// running and serves pprof for profiling long paper-scale passes.
	var status atomic.Value
	status.Store("starting")
	if *httpAddr != "" {
		srv, err := introspect.Serve(*httpAddr, introspect.Source{
			Tool:   "nvmcp-bench",
			Status: func() string { return status.Load().(string) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmcp-bench: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			if err := srv.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "nvmcp-bench: %v\n", err)
			}
		}()
		fmt.Printf("introspection listening on http://%s\n", srv.Addr())
	}

	if *list {
		listExperiments(os.Stdout, "")
		return
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", *scaleFlag)
		os.Exit(2)
	}

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	var expanded []experiments.Experiment
	for _, t := range targets {
		if t == "all" {
			expanded = append(expanded, experiments.All...)
			continue
		}
		// Experiment ids are preset ids, so bench and sim share one
		// namespace; DESIGN.md ids (e.g. F7) are accepted too.
		e, ok := experiments.Lookup(t)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %v); use -list\n",
				t, scenario.PresetIDs())
			os.Exit(2)
		}
		expanded = append(expanded, e)
	}

	prof, err := introspect.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-bench: %v\n", err)
		os.Exit(2)
	}
	jsonOut := make(map[string]benchRecord, len(expanded))
	records := make([]benchRecord, 0, len(expanded))
	for _, e := range expanded {
		name := e.ID
		status.Store(name)
		start := time.Now()
		result := e.Run(scale)
		wall := time.Since(start)
		status.Store("idle")
		rec := benchRecord{
			Scenario: name,
			Scale:    *scaleFlag,
			WallMS:   float64(wall.Microseconds()) / 1e3,
			Result:   result,
		}
		records = append(records, rec)
		if fr, ok := result.(experiments.FleetResult); ok && *stressOut != "" {
			if err := writeStressReport(*stressOut, fr.Report); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *asJSON {
			// The combined stdout object and the per-file artifacts share
			// the benchRecord envelope, so consumers parse one schema.
			jsonOut[name] = rec
			if err := writeJSONFile(filepath.Join(*jsonDir, "BENCH_"+name+".json"), rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		e.Print(os.Stdout, result)
		fmt.Printf("[%s completed in %v]\n\n", name, wall.Round(time.Millisecond))
	}
	if err := prof.Stop(records); err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-bench: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *reportOut != "" {
		err := writeJSONFile(*reportOut, benchReport{
			Tool:      "nvmcp-bench",
			Scale:     *scaleFlag,
			Scenarios: records,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeStressReport writes the fleet stress-report pair: <base>.json (the
// stable schema) and <base>.html (self-contained MTTR/availability curves).
func writeStressReport(path string, rep stress.Report) error {
	err := report.WritePair(path, "stress", rep, func(w io.Writer) error { return stress.WriteHTML(w, rep) }, nil)
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(path, filepath.Ext(path))
	fmt.Printf("wrote stress report -> %s.json, %s.html\n", base, base)
	return nil
}

// writeJSONFile renders v as indented JSON at path, surfacing the Close
// error before the caller decides how loudly to fail.
func writeJSONFile(path string, v any) error {
	return report.WriteFile(path, func(w io.Writer) error { return report.WriteJSON(w, "nvmcp-bench", v) })
}

// listExperiments writes one line per runnable experiment, in `all` order,
// from the preset table's ids and descriptions.
func listExperiments(w io.Writer, indent string) {
	for _, e := range experiments.All {
		p, _ := scenario.PresetByID(e.ID)
		fmt.Fprintf(w, "%s%-16s %s\n", indent, p.ID, p.Description)
	}
}

// writeUsage renders the -help text above the flag defaults.
func writeUsage(w io.Writer) {
	fmt.Fprint(w, `nvmcp-bench regenerates the paper's tables and figures.

usage: nvmcp-bench [-scale quick|paper] [-json] [experiment ...]

experiments (DESIGN.md ids such as F7 work too):
`)
	listExperiments(w, "  ")
	fmt.Fprintf(w, "  %-16s %s\n\nflags:\n", "all", "everything above, in order")
}

func usage() {
	writeUsage(os.Stderr)
	flag.PrintDefaults()
}
