package scenario_test

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"nvmcp/internal/fault"
	"nvmcp/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fullScenario exercises every section of the spec.
func fullScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:         "golden",
		Nodes:        4,
		CoresPerNode: 2,
		NVMPerCoreBW: 400e6,
		LinkBW:       250e6,
		Workload: scenario.WorkloadSpec{
			App:       "gtc",
			CkptMB:    48,
			ScaleComm: true,
			IterSecs:  4,
		},
		Iterations: 4,
		Local:      scenario.LocalSpec{Policy: "dcpcp", RateCap: 100e6},
		Remote:     scenario.RemoteSpec{Policy: "buddy-precopy", AutoRateCap: true, Every: 2},
		Bottom:     scenario.BottomSpec{Policy: "pfs-drain", AggregateBW: 2e9},
		Failures:   []scenario.FailureSpec{{AtSecs: 10, Node: 1, Kind: "hard"}},
		PayloadCap: 2048,
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := fullScenario()
	buf, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := scenario.Load(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("Load of Marshal output: %v", err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip changed the scenario:\nbefore %+v\nafter  %+v", sc, back)
	}
}

func TestGoldenScenarioFile(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	want, err := fullScenario().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("testdata/golden.json is stale (rerun with -update):\ngot\n%s\nwant\n%s", got, want)
	}
	sc, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, fullScenario()) {
		t.Fatalf("golden file decodes to %+v", sc)
	}
}

// TestLoadRejectsUnknownFields: a typo, and the retired spellings of
// artifact outputs (the nvmcp-sim -events-out/-metrics-out/-trace-out/
// -report-out flags) and of a hard failure (kind "hard"), are refused.
func TestLoadRejectsUnknownFields(t *testing.T) {
	const base = `{"nodes": 2, "cores_per_node": 2, "iterations": 1, "workload": {"app": "gtc"}, `
	for _, tc := range []struct{ extra, field string }{
		{`"remotee": {}`, "remotee"},
		{`"obs": {"report_out": "report.json"}`, "obs"},
		{`"failures": [{"at_secs": 1, "node": 0, "hard": true}]`, "hard"},
	} {
		_, err := scenario.Load(strings.NewReader(base + tc.extra + "}"))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
			t.Errorf("%s: unknown field not rejected: %v", tc.field, err)
		}
	}
}

// TestValidateErrors covers the rules Scenario.Validate keeps: those the
// lowered cluster config cannot state or would default away. The run's
// other rules are refused by cluster.FromScenario (cluster
// TestFromScenarioErrors).
func TestValidateErrors(t *testing.T) {
	mod := func(f func(*scenario.Scenario)) *scenario.Scenario {
		sc := fullScenario()
		f(sc)
		return sc
	}
	cases := []struct {
		name string
		sc   *scenario.Scenario
		want string
	}{
		{"no nodes", mod(func(sc *scenario.Scenario) { sc.Nodes = 0 }), "nodes must be >= 1"},
		{"no cores", mod(func(sc *scenario.Scenario) { sc.CoresPerNode = 0 }), "cores_per_node must be >= 1"},
		{"no iterations", mod(func(sc *scenario.Scenario) { sc.Iterations = 0 }), "iterations must be >= 1"},
		{"bad app", mod(func(sc *scenario.Scenario) { sc.Workload.App = "nope" }), `unknown workload "nope" (valid:`},
		{"negative ckpt", mod(func(sc *scenario.Scenario) { sc.Workload.CkptMB = -1 }), "workload.ckpt_mb must be >= 0, got -1"},
		{"comm below -1", mod(func(sc *scenario.Scenario) { sc.Workload.CommMB = -2 }), "workload.comm_mb must be >= -1"},
		{"negative phase shift", mod(func(sc *scenario.Scenario) { sc.Workload.PhaseShiftMods = -1 }),
			"phase-shift fields must be >= 0 (iter 0, mods -1)"},
		// auto_rate_cap replaces the explicit cap, so the lowered config
		// could not refuse it.
		{"negative remote rate cap", mod(func(sc *scenario.Scenario) { sc.Remote.RateCap = -5 }),
			"remote.rate_cap must be >= 0, got -5"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate passed", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
	if err := fullScenario().Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

// TestFailureSpecEvent pins the one lowering from a scenario failure to a
// fault.Event: an empty kind is soft and an explicit kind is taken as named.
func TestFailureSpecEvent(t *testing.T) {
	for _, tc := range []struct {
		spec scenario.FailureSpec
		want fault.Kind
	}{
		{scenario.FailureSpec{AtSecs: 1}, fault.Soft},
		{scenario.FailureSpec{AtSecs: 1, Kind: "hard"}, fault.Hard},
		{scenario.FailureSpec{AtSecs: 1, Kind: "buddy-loss"}, fault.BuddyLoss},
	} {
		ev, err := tc.spec.Event()
		if err != nil || ev.Kind != tc.want {
			t.Errorf("%+v: Event() = %q, %v; want %q", tc.spec, ev.Kind, err, tc.want)
		}
	}
	ev, err := scenario.FailureSpec{AtSecs: 1.5, Node: 3, Kind: "link-storm", DurationSecs: 0.25,
		Factor: 0.1, Waves: 2, WaveDelaySecs: 0.5}.Event()
	want := fault.Event{At: 1500 * time.Millisecond, Node: 3, Kind: fault.LinkStorm,
		Duration: 250 * time.Millisecond, Factor: 0.1, Waves: 2, WaveDelay: 500 * time.Millisecond}
	if err != nil || ev != want {
		t.Errorf("link-storm: Event() = %+v, %v; want %+v", ev, err, want)
	}
}

func TestParseScale(t *testing.T) {
	for _, name := range []string{"tiny", "quick", "paper"} {
		if _, err := scenario.ParseScale(name); err != nil {
			t.Errorf("ParseScale(%q): %v", name, err)
		}
	}
	if _, err := scenario.ParseScale("huge"); err == nil || !strings.Contains(err.Error(), "valid: tiny, quick, paper") {
		t.Errorf("ParseScale(huge): %v", err)
	}
}

// TestPresetTableCompleteness checks that every experiment ID in the
// DESIGN.md §4 index resolves to a preset, so the table and the code cannot
// drift apart silently.
func TestPresetTableCompleteness(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	idRe := regexp.MustCompile(`^\|\s*([A-Z][A-Z0-9-]*)\s*\|`)
	inIndex := false
	var ids []string
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "## ") {
			inIndex = strings.HasPrefix(line, "## 4.")
			continue
		}
		if !inIndex {
			continue
		}
		if m := idRe.FindStringSubmatch(line); m != nil && m[1] != "ID" {
			ids = append(ids, m[1])
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) < 15 {
		t.Fatalf("only parsed %d experiment ids from DESIGN.md §4 (%v); parser broken?", len(ids), ids)
	}
	for _, id := range ids {
		if _, ok := scenario.PresetByDesignID(id); !ok {
			t.Errorf("DESIGN.md §4 id %q has no preset", id)
		}
	}
}

func TestClusterShapedPresetsBuildAtEveryScale(t *testing.T) {
	scales := []scenario.Scale{scenario.ScaleTiny, scenario.ScaleQuick, scenario.ScalePaper}
	for _, p := range scenario.Presets() {
		if !p.ClusterShaped() {
			continue
		}
		for _, s := range scales {
			sc, err := scenario.BuildPreset(p.ID, s)
			if err != nil {
				t.Errorf("BuildPreset(%q, %s): %v", p.ID, s, err)
				continue
			}
			// Presets must round-trip like hand-written files do.
			buf, err := sc.Marshal()
			if err != nil {
				t.Errorf("%s@%s: %v", p.ID, s, err)
				continue
			}
			if _, err := scenario.Load(bytes.NewReader(buf)); err != nil {
				t.Errorf("%s@%s does not round-trip: %v", p.ID, s, err)
			}
		}
	}
}

func TestBuildPresetErrors(t *testing.T) {
	_, err := scenario.BuildPreset("nope", scenario.ScaleTiny)
	if err == nil || !strings.Contains(err.Error(), `unknown preset "nope" (valid:`) {
		t.Errorf("unknown preset: %v", err)
	}
	_, err = scenario.BuildPreset("tab1", scenario.ScaleTiny)
	if err == nil || !strings.Contains(err.Error(), "nvmcp-bench tab1") {
		t.Errorf("bench-only preset should point at nvmcp-bench: %v", err)
	}
}

func TestPresetIDsSortedAndUnique(t *testing.T) {
	ids := scenario.PresetIDs()
	seen := map[string]bool{}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("PresetIDs not sorted/unique at %q: %v", id, ids)
		}
		seen[id] = true
	}
	if !seen["fig9"] || !seen["erasure"] {
		t.Fatalf("PresetIDs missing expected entries: %v", ids)
	}
}

func TestAutoRemoteRateCap(t *testing.T) {
	// 2 versions x 100 bytes x 4 ranks over a 2x5s remote interval = 80 B/s.
	got := scenario.AutoRemoteRateCap(100, 4, 5e9, 2)
	if got != 80 {
		t.Fatalf("AutoRemoteRateCap = %g, want 80", got)
	}
	if scenario.AutoRemoteRateCap(100, 4, 0, 2) != 0 {
		t.Fatal("zero iteration time should give an uncapped rate")
	}
	// every < 1 clamps to 1.
	if scenario.AutoRemoteRateCap(100, 4, 5e9, 0) != 160 {
		t.Fatal("every=0 should behave like every=1")
	}
}

// TestResolvedRemoteRateCapUsesRunInterval checks the auto cap spreads over
// the remote interval the cluster actually runs: local.every × remote.every
// iterations, with an omitted every taking the cluster's default.
func TestResolvedRemoteRateCapUsesRunInterval(t *testing.T) {
	capOf := func(localEvery, remoteEvery int) float64 {
		t.Helper()
		sc := scenario.Base("gtc", scenario.ScaleTiny, 400e6)
		sc.Local.Every = localEvery
		sc.Remote = scenario.RemoteSpec{Policy: "buddy-precopy", AutoRateCap: true, Every: remoteEvery}
		got, err := sc.ResolvedRemoteRateCap()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	explicit := capOf(0, 4)
	if omitted := capOf(0, 0); omitted != explicit || explicit <= 0 {
		t.Fatalf("omitted every resolves to %g B/s, explicit every 4 to %g B/s", omitted, explicit)
	}
	if halved := capOf(2, 0); halved != explicit/2 {
		t.Fatalf("local.every 2 resolves to %g B/s, want %g", halved, explicit/2)
	}
}
