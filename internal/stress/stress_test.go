package stress

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"os"

	"nvmcp/internal/cluster"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/topo"
)

// fleet8 is 8 nodes over 2 zones × 2 racks (2 nodes per rack).
func fleet8(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.Uniform(8, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestAnalyzeSpreadBuddySurvivesZoneLoss(t *testing.T) {
	tp := fleet8(t)
	// Cross-zone buddy: node n's copy lives in the other zone.
	sets := make([][]int, 8)
	for n := range sets {
		sets[n] = []int{(n + 4) % 8}
	}
	s := Analyze(tp, sets, "spread", true)
	if s == nil {
		t.Fatal("analysis missing")
	}
	if !s.ZoneSurvivable {
		t.Fatal("cross-zone buddies must survive a zone loss")
	}
	for _, lvl := range s.Levels {
		if lvl.Level != "provider" && !lvl.Survivable {
			t.Errorf("level %s not survivable: %+v", lvl.Level, lvl.Risks)
		}
	}
	// The whole-provider loss is always fatal when every copy lives inside it.
	if s.Levels[2].Survivable {
		t.Error("single-provider fleet cannot survive losing the provider")
	}
}

func TestAnalyzeNaiveBuddyLosesZone(t *testing.T) {
	tp := fleet8(t)
	// Paper ring: buddy = n+1; nodes 0..3 are zone 0, 4..7 zone 1, so pairs
	// inside a zone die together.
	sets := make([][]int, 8)
	for n := range sets {
		sets[n] = []int{(n + 1) % 8}
	}
	s := Analyze(tp, sets, "naive", false)
	if s.ZoneSurvivable {
		t.Fatal("naive ring over a block layout must lose data on zone loss")
	}
	var zone LevelSurvivability
	for _, lvl := range s.Levels {
		if lvl.Level == "zone" {
			zone = lvl
		}
	}
	if zone.AtRiskNodes == 0 {
		t.Fatal("zone level shows no at-risk nodes")
	}
	if !strings.Contains(s.Verdict(), "ZONE LOSS DESTROYS DATA") {
		t.Errorf("verdict = %q", s.Verdict())
	}
}

func TestAnalyzeParityOutsideTopologyNeverCoFails(t *testing.T) {
	tp := fleet8(t)
	// Erasure group {0,4} with parity on extra node 8 (outside the
	// topology): reconstruction needs the other member + parity.
	sets := make([][]int, 8)
	for n := range sets {
		sets[n] = []int{(n + 4) % 8, 8}
	}
	s := Analyze(tp, sets, "spread", true)
	if !s.ZoneSurvivable {
		t.Fatal("parity holders outside the topology must not count as co-failing")
	}
}

func TestAnalyzeEmptySupportSetIsFatal(t *testing.T) {
	tp := fleet8(t)
	sets := make([][]int, 8) // no remote copies at all
	s := Analyze(tp, sets, "spread", true)
	if s.ZoneSurvivable {
		t.Fatal("no remote copies means any domain loss destroys data")
	}
}

func TestAnalyzeNilInputs(t *testing.T) {
	if Analyze(nil, [][]int{{1}}, "spread", true) != nil {
		t.Error("nil topology should yield nil analysis")
	}
	if Analyze(fleet8(t), nil, "spread", true) != nil {
		t.Error("nil support sets should yield nil analysis")
	}
	var s *Survivability
	if !strings.Contains(s.Verdict(), "not analyzed") {
		t.Error("nil verdict should say not analyzed")
	}
}

// TestFallenBackRunReportsSerial asks for four shards on a zone-outage
// fleet, whose failure injection pins the serial engine: the cell must
// record the one shard the run used, and the survivability analysis of a
// serial run must still be made.
func TestFallenBackRunReportsSerial(t *testing.T) {
	p, ok := scenario.PresetByID("fleet-zone")
	if !ok {
		t.Fatal("fleet-zone preset missing")
	}
	sc := p.Build(scenario.ScaleTiny)
	cfg, err := cluster.FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	res, c, err := cluster.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := CellFromRun(sc, c, res).Shards; got != 1 {
		t.Errorf("fallen-back run reports %d shards, want 1", got)
	}
	if AnalyzeRun(c) == nil {
		t.Error("fallen-back serial run skipped the survivability analysis")
	}
}

func sampleReport() Report {
	ok := true
	bad := false
	tp, _ := topo.Uniform(8, 1, 2, 2)
	sets := make([][]int, 8)
	for n := range sets {
		sets[n] = []int{(n + 4) % 8}
	}
	cells := []Cell{
		{Name: "fleet-64/zone/naive", FleetNodes: 64, Severity: "zone", Placement: "naive",
			MTTRSecs: 4.2, AvailabilityPct: 97.1, RecoveryLost: 12, ChecksumOK: &bad, Topology: "1p/2z/4r"},
		{Name: "fleet-64/zone/spread", FleetNodes: 64, Severity: "zone", Placement: "spread",
			MTTRSecs: 3.8, AvailabilityPct: 98.0, RecoveryRemote: 24, ChecksumOK: &ok, Topology: "1p/2z/4r"},
		{Name: "fleet-16/zone/spread", FleetNodes: 16, Severity: "zone", Placement: "spread",
			MTTRSecs: 1.2, AvailabilityPct: 99.0, RecoveryRemote: 8, ChecksumOK: &ok, Topology: "1p/2z/4r"},
		{Name: "fleet-16/none", FleetNodes: 16, Severity: "none",
			MTTRSecs: 0, AvailabilityPct: 100},
	}
	return BuildReport(report.Meta{Tool: "test", Scenario: "fleet", Seed: 7},
		[]*Survivability{Analyze(tp, sets, "spread", true)}, cells)
}

func TestBuildReportSortsCells(t *testing.T) {
	rep := sampleReport()
	if rep.Cells[0].FleetNodes != 16 || rep.Cells[len(rep.Cells)-1].FleetNodes != 64 {
		t.Fatalf("cells not sorted by fleet size: %+v", rep.Cells)
	}
	if rep.SchemaVersion != SchemaVersion {
		t.Fatal("schema version missing")
	}
}

func TestJSONRoundTripByteStable(t *testing.T) {
	rep := sampleReport()
	var a, b bytes.Buffer
	if err := report.WriteJSON(&a, "stress", rep); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteJSON(&b, "stress", rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same report serialized differently")
	}
	path := filepath.Join(t.TempDir(), "stress.json")
	if err := os.WriteFile(path, a.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := report.ReadFile[Report]("stress", path, SchemaVersion)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(rep.Cells) || back.Seed != rep.Seed {
		t.Fatal("round trip lost data")
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := report.ReadFile[Report]("stress", path, SchemaVersion); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestHTMLSelfContainedAndStable(t *testing.T) {
	rep := sampleReport()
	var a, b bytes.Buffer
	if err := WriteHTML(&a, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteHTML(&b, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same report rendered differently")
	}
	out := a.String()
	for _, want := range []string{
		"<svg", "MTTR (s)", "Availability (%)", "zone/naive", "zone/spread",
		"survivable", "MISMATCH", "Fleet stress report",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "<script src"} {
		if strings.Contains(out, banned) {
			t.Errorf("html not self-contained: found %q", banned)
		}
	}
}

func TestRound6(t *testing.T) {
	if Round6(1.23456789) != 1.234568 {
		t.Errorf("Round6 = %v", Round6(1.23456789))
	}
	if Round6(0.1+0.2) != 0.3 {
		t.Errorf("Round6(0.1+0.2) = %v", Round6(0.1+0.2))
	}
}
