package slo_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nvmcp/internal/cluster"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/slo"
)

var update = flag.Bool("update", false, "rewrite the golden report artifacts")

// goldenRun executes a deterministic tiny SLO preset and renders its report.
// The simulation is byte-deterministic at any GOMAXPROCS, so the JSON and
// HTML artifacts must match the checked-in goldens exactly; a diff here
// means either the scenario's behavior changed or the report format did —
// both deserve a deliberate `go test ./internal/slo -run Golden -update`.
func goldenRun(t *testing.T, id string) slo.Report {
	t.Helper()
	p, ok := scenario.PresetByID(id)
	if !ok {
		t.Fatalf("%s preset not registered", id)
	}
	sc := p.Build(scenario.ScaleTiny)
	_, c, err := cluster.RunScenario(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if c.SLO == nil {
		t.Fatal("scenario with an slo block did not attach the flight recorder")
	}
	return slo.BuildReport(c.SLO, report.Meta{Tool: "test", Scenario: sc.Name, Seed: sc.FaultSeed})
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d vs %d bytes) — if the change is intentional, re-run with -update",
			path, len(got), len(want))
	}
}

func TestGoldenJSONReport(t *testing.T) {
	rep := goldenRun(t, "slo-paper")
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, "slo", rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "slo-paper-tiny.golden.json"), buf.Bytes())

	// The artifact must round-trip through the diff loader unchanged.
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := report.ReadFile[slo.Report]("slo", path, slo.SchemaVersion)
	if err != nil {
		t.Fatal(err)
	}
	if res := slo.Diff(rep, back, 0); res.Regressed {
		t.Fatalf("self-diff of a round-tripped report regressed: %+v", res.Entries)
	}
}

func TestGoldenHTMLReport(t *testing.T) {
	rep := goldenRun(t, "slo-paper")
	var buf bytes.Buffer
	if err := slo.WriteHTML(&buf, rep); err != nil {
		t.Fatal(err)
	}
	// Self-containment: one document, inline styles and SVG, no external
	// fetches.
	for _, must := range []string{"<!DOCTYPE html>", "<style>", "<svg", "</html>"} {
		if !bytes.Contains(buf.Bytes(), []byte(must)) {
			t.Fatalf("HTML report lacks %q", must)
		}
	}
	for _, never := range []string{"<script src", "<link rel", "http://", "https://"} {
		if bytes.Contains(buf.Bytes(), []byte(never)) {
			t.Fatalf("HTML report references external resource (%q) — must be self-contained", never)
		}
	}
	checkGolden(t, filepath.Join("testdata", "slo-paper-tiny.golden.html"), buf.Bytes())
}

// TestGoldenFaultsReport pins the fault-cascade side of the recorder, which
// the fault-free slo-paper golden never reaches: degraded intervals, MTTR,
// per-tier recovery counts and the burn-rate objective over them.
func TestGoldenFaultsReport(t *testing.T) {
	rep := goldenRun(t, "slo-faults")
	if rep.Summary.MTTRSeconds == 0 || rep.Summary.DegradedSeconds == 0 {
		t.Fatalf("slo-faults golden run saw no repair (mttr %g, degraded %g) — it no longer covers the fault path",
			rep.Summary.MTTRSeconds, rep.Summary.DegradedSeconds)
	}
	var js, page bytes.Buffer
	if err := report.WriteJSON(&js, "slo", rep); err != nil {
		t.Fatal(err)
	}
	if err := slo.WriteHTML(&page, rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "slo-faults-tiny.golden.json"), js.Bytes())
	checkGolden(t, filepath.Join("testdata", "slo-faults-tiny.golden.html"), page.Bytes())
}

func TestSchemaVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := report.ReadFile[slo.Report]("slo", path, slo.SchemaVersion); err == nil {
		t.Fatal("schema version 99 accepted")
	}
}
