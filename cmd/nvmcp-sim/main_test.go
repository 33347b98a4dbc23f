package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nvmcp/internal/cluster"
	"nvmcp/internal/introspect"
	"nvmcp/internal/scenario"
)

// TestOutputIndependentOfHostWidth runs a default preset at GOMAXPROCS 1
// and 4: the host's width must not choose the simulated machine, so both
// runs print the same bytes and the library's checksum for the preset.
func TestOutputIndependentOfHostWidth(t *testing.T) {
	run := func(procs int) []byte {
		cmd := exec.Command(simBinary(t), "-preset", "fig7", "-scale", "tiny")
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return out
	}
	narrow, wide := run(1), run(4)
	if string(narrow) != string(wide) {
		t.Fatalf("output differs between GOMAXPROCS 1 and 4:\n%s\n---\n%s", narrow, wide)
	}
	m := regexp.MustCompile(`workload checksum\s+([0-9a-f]{16})`).FindSubmatch(narrow)
	if m == nil {
		t.Fatalf("no checksum in output:\n%s", narrow)
	}
	p, _ := scenario.PresetByID("fig7")
	res, _, err := cluster.RunScenario(p.Build(scenario.ScaleTiny))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", res.WorkloadChecksum); string(m[1]) != want {
		t.Fatalf("CLI checksum %s != library checksum %s", m[1], want)
	}
}

// TestPresetListingFleetColumn pins the -list-presets contract: fleet-backed
// presets show their generated topology, everything else shows "-", and the
// column order keeps `awk '$3 == "-preset"'` (the Makefile's preset sweep)
// matching exactly the cluster-shaped presets.
func TestPresetListingFleetColumn(t *testing.T) {
	var buf strings.Builder
	printPresets(&buf, "quick")
	out := buf.String()

	rows := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if i < 2 { // header + rule
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			t.Fatalf("preset row has fewer than 4 columns: %q", line)
		}
		rows[fields[0]] = line
	}

	for _, p := range scenario.Presets() {
		line, ok := rows[p.ID]
		if !ok {
			t.Errorf("preset %q missing from listing", p.ID)
			continue
		}
		fields := strings.Fields(line)
		if p.ClusterShaped() {
			if fields[2] != "-preset" {
				t.Errorf("%s: field 3 = %q; Makefile awk sweep expects \"-preset\"", p.ID, fields[2])
			}
			sc := p.Build(scenario.ScaleQuick)
			if sc.Fleet != nil && !strings.Contains(line, "p/") {
				t.Errorf("%s: fleet preset row lacks a topology summary: %q", p.ID, line)
			}
			if sc.Fleet == nil && fields[4] != "-" {
				t.Errorf("%s: non-fleet preset should show \"-\" in the fleet column: %q", p.ID, line)
			}
		} else if fields[2] == "-preset" {
			t.Errorf("%s: bench-only preset must not match the awk preset sweep: %q", p.ID, line)
		}
	}

	// The concrete shape the docs promise for a generated fleet.
	if line := rows["fleet-zone"]; !strings.Contains(line, "96n 1p/4z/8r") {
		t.Errorf("fleet-zone@quick topology column = %q, want 96n 1p/4z/8r", line)
	}
}

// TestSweepHonoursDriftStrict holds -sweep to the single-run strict rule: a
// one-cell sweep over the drift-breach scenario passes without -drift-strict
// and fails with it, as `-scenario drift-breach.json -drift-strict` does.
func TestSweepHonoursDriftStrict(t *testing.T) {
	base, err := os.ReadFile("../../docs/scenarios/drift-breach.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(`{"base": `+string(base)+`, "axes": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(simBinary(t), "-sweep", path).CombinedOutput(); err != nil {
		t.Fatalf("lenient sweep failed: %v\n%s", err, out)
	}
	out, err := exec.Command(simBinary(t), "-sweep", path, "-drift-strict").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("strict sweep over a drift breach: err = %v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "FAIL") {
		t.Errorf("strict sweep did not mark the cell FAIL:\n%s", out)
	}
}

// TestSweepRefusedWhole: a sweep whose second cell breaks a rule only the
// lowering checks (remote.group -1) exits 2 before its valid first cell
// runs, so no cell prints a result line.
func TestSweepRefusedWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	sweep := `{"base": {"name": "refused", "nodes": 2, "cores_per_node": 2, "iterations": 1,
		"workload": {"app": "gtc", "ckpt_mb": 24, "iter_secs": 2}, "remote": {"policy": "erasure"}},
		"axes": [{"field": "remote.group", "values": [0, -1]}]}`
	if err := os.WriteFile(path, []byte(sweep), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(simBinary(t), "-sweep", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("sweep with a bad cell: err = %v, want exit 2\n%s%s", err, out, stderr.String())
	}
	if len(out) != 0 {
		t.Errorf("refused sweep printed to stdout:\n%s", out)
	}
	if want := `scenario "refused/remote.group=-1": cluster: remote group must be >= 0, got -1`; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q missing %q", stderr.String(), want)
	}
}

// TestReportIndependentOfTrace: rendering the Chrome timeline is a sink,
// not a setting, so -report-out writes the same bytes with and without
// -trace-out.
func TestReportIndependentOfTrace(t *testing.T) {
	dir := t.TempDir()
	report := func(args ...string) []byte {
		path := filepath.Join(dir, fmt.Sprintf("report%d.json", len(args)))
		args = append([]string{"-preset", "faults", "-scale", "tiny", "-report-out", path}, args...)
		if out, err := exec.Command(simBinary(t), args...).CombinedOutput(); err != nil {
			t.Fatalf("run %v: %v\n%s", args, err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := report()
	traced := report("-trace-out", filepath.Join(dir, "trace.json"))
	if string(plain) != string(traced) {
		t.Fatalf("-report-out differs with -trace-out (%d vs %d bytes)", len(plain), len(traced))
	}
}

// TestProfileFlags holds -cpuprofile and -memprofile to their promise: each
// writes a non-empty gzip-compressed pprof profile of the run, and the heap
// profile is sampled at introspect.HeapProfileRate.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, err := exec.Command(simBinary(t), "-preset", "fig7", "-scale", "tiny",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if err != nil {
		t.Fatalf("profiled run failed: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		checkGzipProfile(t, path)
	}
	checkHeapPeriod(t, mem)
}

// checkHeapPeriod holds a heap profile's sampling period, as go tool pprof
// reads it, to introspect.HeapProfileRate.
func checkHeapPeriod(t *testing.T, path string) {
	t.Helper()
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -raw %s: %v\n%s", filepath.Base(path), err, out)
	}
	want := fmt.Sprintf("Period: %d\n", introspect.HeapProfileRate)
	if !strings.Contains(string(out), want) {
		t.Errorf("%s does not record %q:\n%.300s", filepath.Base(path), want, out)
	}
}

func checkGzipProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not gzip: %v", filepath.Base(path), err)
	}
	body, err := io.ReadAll(zr)
	if err != nil || len(body) == 0 {
		t.Fatalf("%s: %d bytes after gunzip, err %v", filepath.Base(path), len(body), err)
	}
}
