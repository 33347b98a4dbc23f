package drift_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nvmcp/internal/cluster"
	"nvmcp/internal/drift"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden report artifacts")

// TestGoldenReports pins the drift report pair of two deterministic runs:
// the tiny slo-paper preset (observe-mostly, every quantity evaluated) and
// the checked-in drift-breach scenario (a phase shift and limit
// violations). The simulation is byte-deterministic at any GOMAXPROCS, so a
// diff means the scenario's behaviour or the report format changed — both
// deserve a deliberate `go test ./internal/drift -run Golden -update`.
func TestGoldenReports(t *testing.T) {
	paper, ok := scenario.PresetByID("slo-paper")
	if !ok {
		t.Fatal("slo-paper preset not registered")
	}
	breach, err := scenario.LoadFile(filepath.Join("..", "..", "docs", "scenarios", "drift-breach.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		sc     *scenario.Scenario
	}{
		{"slo-paper-tiny", paper.Build(scenario.ScaleTiny)},
		{"drift-breach", breach},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			_, c, err := cluster.RunScenario(tc.sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if c.Drift == nil {
				t.Fatal("scenario with a drift block did not attach the observatory")
			}
			rep := drift.BuildReport(c.Drift, report.Meta{Tool: "test", Scenario: tc.sc.Name, Seed: tc.sc.FaultSeed})
			var js, page bytes.Buffer
			if err := report.WriteJSON(&js, "drift", rep); err != nil {
				t.Fatal(err)
			}
			if err := drift.WriteHTML(&page, rep); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", tc.golden+".golden.json"), js.Bytes())
			checkGolden(t, filepath.Join("testdata", tc.golden+".golden.html"), page.Bytes())
		})
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
