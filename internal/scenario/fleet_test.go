package scenario_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nvmcp/internal/scenario"
	"nvmcp/internal/topo"
)

func sampleFleet() *scenario.FleetSpec {
	return &scenario.FleetSpec{
		Nodes: 1000, Seed: 42,
		Providers: 2, ZonesPerProvider: 4, RacksPerZone: 4,
		Templates: []scenario.NodeTemplate{
			{Name: "std", Weight: 3, Cores: 1},
			{Name: "big", Weight: 1, Cores: 2, DRAMMB: 512, NVMMB: 2048},
		},
		Startup: scenario.StartupSpec{Pattern: scenario.StartupWave, SpreadSecs: 10, Waves: 4, JitterSecs: 1},
	}
}

func TestFleetExpandDeterministic(t *testing.T) {
	a, err := sampleFleet().Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleFleet().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Shapes, b.Shapes) || !reflect.DeepEqual(a.Start, b.Start) {
		t.Fatal("same spec expanded to different fleets")
	}
	other := sampleFleet()
	other.Seed = 43
	c, err := other.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Shapes, c.Shapes) && reflect.DeepEqual(a.Start, c.Start) {
		t.Fatal("different seeds expanded identically")
	}
}

func TestFleetTemplateMixTracksWeights(t *testing.T) {
	fl, err := sampleFleet().Expand()
	if err != nil {
		t.Fatal(err)
	}
	std := fl.Counts["std"]
	if std < 650 || std > 850 {
		t.Fatalf("3:1 weighting drew %d/1000 std nodes", std)
	}
	if std+fl.Counts["big"] != 1000 {
		t.Fatalf("counts do not cover the fleet: %v", fl.Counts)
	}
	if fl.Topo.Nodes() != 1000 || fl.Topo.Summary() != "2p/8z/32r" {
		t.Fatalf("topology %s over %d nodes", fl.Topo.Summary(), fl.Topo.Nodes())
	}
	// Big nodes got their template's resources; ranks sum the mixed cores.
	ranks := 0
	for _, s := range fl.Shapes {
		if s.Template == "big" && (s.Cores != 2 || s.DRAM != 512<<20 || s.NVM != 2048<<20) {
			t.Fatalf("big node shape %+v", s)
		}
		ranks += s.Cores
	}
	if ranks != std+2*fl.Counts["big"] {
		t.Fatalf("ranks = %d", ranks)
	}
}

func TestFleetStartupPatterns(t *testing.T) {
	base := func() *scenario.FleetSpec {
		return &scenario.FleetSpec{
			Nodes:     64,
			Templates: []scenario.NodeTemplate{{Name: "n", Weight: 1, Cores: 1}},
		}
	}

	// Instant (default): everyone at t=0.
	fl, err := base().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for n, d := range fl.Start {
		if d != 0 {
			t.Fatalf("instant startup delayed node %d by %v", n, d)
		}
	}

	// Linear without jitter: monotone ramp from 0 to the full spread.
	f := base()
	f.Startup = scenario.StartupSpec{Pattern: scenario.StartupLinear, SpreadSecs: 10}
	fl, err = f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if fl.Start[0] != 0 || fl.Start[63] != 10*time.Second {
		t.Fatalf("linear endpoints %v .. %v", fl.Start[0], fl.Start[63])
	}
	for n := 1; n < 64; n++ {
		if fl.Start[n] < fl.Start[n-1] {
			t.Fatalf("linear ramp not monotone at node %d", n)
		}
	}

	// Exponential: doubling cohorts — half the fleet lands in the last
	// sixth of the spread (log2(32)/log2(64) = 5/6).
	f = base()
	f.Startup = scenario.StartupSpec{Pattern: scenario.StartupExponential, SpreadSecs: 12}
	fl, err = f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, d := range fl.Start {
		if d >= 10*time.Second {
			late++
		}
	}
	if late < 32 {
		t.Fatalf("exponential startup: only %d/64 nodes in the last sixth", late)
	}

	// Wave: exactly Waves distinct start times without jitter.
	f = base()
	f.Startup = scenario.StartupSpec{Pattern: scenario.StartupWave, SpreadSecs: 9, Waves: 4}
	fl, err = f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[time.Duration]bool{}
	for _, d := range fl.Start {
		distinct[d] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("wave startup produced %d cohorts, want 4 (%v)", len(distinct), distinct)
	}

	// Jitter stays within its bound and stays seeded.
	f = base()
	f.Startup = scenario.StartupSpec{Pattern: scenario.StartupWave, SpreadSecs: 9, Waves: 3, JitterSecs: 0.5}
	fl, err = f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fl.Start, fl2.Start) {
		t.Fatal("jittered startup not reproducible")
	}
	// The 3 waves land on multiples of 4.5s; jitter must move someone off
	// the grid but never past its 0.5s bound.
	jittered := false
	for n, d := range fl.Start {
		if rem := d % (4500 * time.Millisecond); rem != 0 {
			jittered = true
			if rem >= 500*time.Millisecond {
				t.Fatalf("node %d jittered by %v, bound is 0.5s", n, rem)
			}
		}
	}
	if !jittered {
		t.Fatal("jitter never moved a start time")
	}
}

func TestFleetValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*scenario.FleetSpec)
		want string
	}{
		{"no nodes", func(f *scenario.FleetSpec) { f.Nodes = 0 }, "nodes must be >= 1"},
		{"too many nodes", func(f *scenario.FleetSpec) { f.Nodes = scenario.MaxFleetNodes + 1 }, "nodes must be <= 100000"},
		{"domain count overflow", func(f *scenario.FleetSpec) { // the product overflows a 64-bit int
			f.Nodes, f.Providers, f.ZonesPerProvider, f.RacksPerZone = 4, 3, math.MaxInt32, math.MaxInt32
		}, "racks_per_zone must be <= 100000"},
		{"too many racks", func(f *scenario.FleetSpec) { f.ZonesPerProvider, f.RacksPerZone = 500, 101 }, "got 2 × 500 × 101"},
		{"no templates", func(f *scenario.FleetSpec) { f.Templates = nil }, "at least one node template"},
		{"zero weight", func(f *scenario.FleetSpec) { f.Templates[0].Weight = 0 }, "weight must be > 0"},
		{"zero cores", func(f *scenario.FleetSpec) { f.Templates[0].Cores = 0 }, "cores must be >= 1"},
		{"negative dram", func(f *scenario.FleetSpec) { f.Templates[1].DRAMMB = -1 }, "resources must be >= 0"},
		{"bad pattern", func(f *scenario.FleetSpec) { f.Startup.Pattern = "thunder" }, "unknown startup pattern"},
		{"negative spread", func(f *scenario.FleetSpec) { f.Startup.SpreadSecs = -1 }, "spread/jitter must be >= 0"},
		{"negative waves", func(f *scenario.FleetSpec) { f.Startup.Waves = -1 }, "waves must be >= 0"},
	}
	for _, tc := range cases {
		f := sampleFleet()
		tc.mod(f)
		err := f.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v missing %q", tc.name, err, tc.want)
		}
	}
}

// fleetScenario is a fleet-shaped scenario exercising domain failures.
func fleetScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "fleet-golden",
		Fleet: &scenario.FleetSpec{
			Nodes: 48, Seed: 7,
			ZonesPerProvider: 2, RacksPerZone: 3,
			Templates: []scenario.NodeTemplate{{Name: "std", Weight: 1, Cores: 1}},
		},
		Workload:   scenario.WorkloadSpec{App: "cm1", CkptMB: 8, CommMB: -1, IterSecs: 2},
		Iterations: 3,
		Local:      scenario.LocalSpec{Policy: "dcpcp"},
		Remote:     scenario.RemoteSpec{Policy: "buddy-precopy", Every: 1, Placement: "spread"},
		Failures: []scenario.FailureSpec{
			{AtSecs: 3, Kind: "zone-outage", Zone: 1},
			{AtSecs: 4, Kind: "rack-outage", Zone: 0, Rack: 2, Soft: true},
			{AtSecs: 5, Node: 24, Kind: "link-storm", DurationSecs: 1, Waves: 2, WaveDelaySecs: 0.25},
		},
		FaultModel: &scenario.FaultModelSpec{MTBFRackSecs: 30, MTBFZoneSecs: 90, HorizonSecs: 6, Seed: 3},
		PayloadCap: 1024,
	}
}

// TestLoadRefusesOversizedFleetBeforeBuildingIt: a two-billion-node fleet
// is refused by the ceiling, so the load allocates next to nothing.
func TestLoadRefusesOversizedFleetBeforeBuildingIt(t *testing.T) {
	sc := fleetScenario()
	sc.Fleet.Nodes = 2_000_000_000
	buf, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = scenario.Load(bytes.NewReader(buf))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "100000") {
		t.Fatalf("Load error = %v, want the %d-node ceiling", err, scenario.MaxFleetNodes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refused load allocated %d bytes, want < 1 MiB", got)
	}
}

// maxFleetSpec is a MaxFleetNodes-node fleet with a zone outage: the
// largest spec Load accepts, and one whose failure names a fleet domain.
func maxFleetSpec() *scenario.Scenario {
	sc := fleetScenario()
	sc.Fleet.Nodes = scenario.MaxFleetNodes
	sc.Failures = sc.Failures[:1]
	return sc
}

// TestLoadBuildsNoFleet: validating a spec allocates in the size of the
// spec, not of the fleet it describes. Loading the largest fleet Load
// accepts, with a zone outage, builds neither its topology nor its nodes;
// the lowering (cluster.FromScenario) builds them once.
func TestLoadBuildsNoFleet(t *testing.T) {
	buf, err := maxFleetSpec().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = scenario.Load(bytes.NewReader(buf))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Load of a %d-node fleet: %v", scenario.MaxFleetNodes, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("Load of a %d-node fleet allocated %d bytes, want < 64 KiB", scenario.MaxFleetNodes, got)
	}
}

func TestFleetScenarioValidatesAndRoundTrips(t *testing.T) {
	sc := fleetScenario()
	if err := sc.Validate(); err != nil {
		t.Fatalf("fleet scenario rejected: %v", err)
	}
	if tp, err := sc.Fleet.Topology(); err != nil || tp.Nodes() != 48 || tp.Summary() != "1p/2z/6r" {
		t.Fatalf("Topology = %v, %v", tp, err)
	}
	buf, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := scenario.Load(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("fleet scenario does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip changed the scenario:\nbefore %+v\nafter  %+v", sc, back)
	}
}

// TestFleetScenarioValidateErrors covers the fleet rules Scenario.Validate
// keeps; failures against the fleet's domains are the lowering's (cluster
// TestFromScenarioErrors).
func TestFleetScenarioValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*scenario.Scenario)
		want string
	}{
		{"fleet plus nodes", func(sc *scenario.Scenario) { sc.Nodes = 4 }, "drop nodes/cores_per_node"},
		{"bad fleet", func(sc *scenario.Scenario) { sc.Fleet.Templates = nil }, "at least one node template"},
	}
	for _, tc := range cases {
		sc := fleetScenario()
		tc.mod(sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v missing %q", tc.name, err, tc.want)
		}
	}
}

func TestFleetPresetsDeclareDomains(t *testing.T) {
	for _, id := range []string{"fleet-zone", "fleet-naive", "fleet-storm", "fleet-chaos"} {
		for _, s := range []scenario.Scale{scenario.ScaleTiny, scenario.ScaleQuick, scenario.ScalePaper} {
			sc, err := scenario.BuildPreset(id, s)
			if err != nil {
				t.Errorf("BuildPreset(%q, %s): %v", id, s, err)
				continue
			}
			if sc.Fleet == nil {
				t.Errorf("%s@%s is not fleet-shaped", id, s)
				continue
			}
			tp, err := sc.Fleet.Topology()
			if err != nil {
				t.Errorf("%s@%s: %v", id, s, err)
				continue
			}
			if s == scenario.ScalePaper && sc.Fleet.Nodes < 1000 {
				t.Errorf("%s@paper has %d nodes, want >= 1000", id, sc.Fleet.Nodes)
			}
			if zones := len(tp.Domains(topo.LevelZone)); zones < 2 && id != "fleet-chaos" {
				t.Errorf("%s@%s has %d zones; domain presets need at least 2", id, s, zones)
			}
		}
	}
}
