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

// TestProfileFlags holds -cpuprofile and -memprofile to their promise: each
// writes a non-empty gzip-compressed pprof profile of the run.
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
