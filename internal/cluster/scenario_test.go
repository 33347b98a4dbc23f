package cluster

import (
	"path/filepath"
	"strings"
	"testing"

	"nvmcp/internal/drift"
	"nvmcp/internal/scenario"
	"nvmcp/internal/slo"
)

// TestPresetsRunAtTinyScale smoke-runs every cluster-shaped preset end to end
// at the tiny scale — the same sweep `make presets` runs under -race.
func TestPresetsRunAtTinyScale(t *testing.T) {
	for _, p := range scenario.Presets() {
		if !p.ClusterShaped() {
			continue
		}
		t.Run(p.ID, func(t *testing.T) {
			t.Parallel()
			sc, err := scenario.BuildPreset(p.ID, scenario.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.ExecTime <= 0 {
				t.Fatalf("preset %s ran for %v", p.ID, res.ExecTime)
			}
			if res.LocalCkpts == 0 {
				t.Fatalf("preset %s took no local checkpoints", p.ID)
			}
			if sc.Remote.Policy != "" && sc.Remote.Policy != "none" && res.RemoteCkpts == 0 {
				t.Fatalf("preset %s configures remote %q but took no remote checkpoints",
					p.ID, sc.Remote.Policy)
			}
			if sc.Bottom.Policy == "pfs-drain" && res.BottomObjects == 0 {
				t.Fatalf("preset %s configures a bottom tier but drained nothing", p.ID)
			}
		})
	}
}

// TestErasureScenarioFromFile is the acceptance check that the shipped
// erasure scenario file selects the parity tier by name alone: it loads,
// lowers and runs, and the cluster builds an erasure tier that commits
// parity rounds.
func TestErasureScenarioFromFile(t *testing.T) {
	sc, err := scenario.LoadFile(filepath.Join("..", "..", "docs", "scenarios", "erasure-remote.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the file's quick-sized run for test speed; policies stay as
	// declared.
	sc.Workload.CkptMB = 24
	sc.Workload.IterSecs = 2
	sc.Iterations = 2
	res, c, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Remote.Policy != "erasure" {
		t.Fatalf("scenario file declares remote %q", sc.Remote.Policy)
	}
	if res.RemoteCkpts == 0 {
		t.Fatal("erasure scenario committed no parity rounds")
	}
	if c.RemoteTier() == nil {
		t.Fatal("erasure scenario built no remote tier")
	}
}

// goldenScenario and fleetScenario are the scenario package's test specs
// (fullScenario and fleetScenario in its tests): every section of a
// fixed-shape spec, and a fleet with domain failures.
func goldenScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:         "golden",
		Nodes:        4,
		CoresPerNode: 2,
		NVMPerCoreBW: 400e6,
		LinkBW:       250e6,
		Workload:     scenario.WorkloadSpec{App: "gtc", CkptMB: 48, ScaleComm: true, IterSecs: 4},
		Iterations:   4,
		Local:        scenario.LocalSpec{Policy: "dcpcp"},
		Remote:       scenario.RemoteSpec{Policy: "buddy-precopy", AutoRateCap: true, Every: 2},
		Bottom:       scenario.BottomSpec{Policy: "pfs-drain"},
		Failures:     []scenario.FailureSpec{{AtSecs: 10, Node: 1, Kind: "hard"}},
		PayloadCap:   2048,
	}
}

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

// TestFromScenarioErrors holds the run's rules to their one home: each case
// passes Scenario.Validate, which leaves these rules to the lowering, and
// FromScenario refuses it, naming the scenario.
func TestFromScenarioErrors(t *testing.T) {
	golden := func(f func(*scenario.Scenario)) *scenario.Scenario {
		sc := goldenScenario()
		f(sc)
		return sc
	}
	fleet := func(f func(*scenario.Scenario)) *scenario.Scenario {
		sc := fleetScenario()
		f(sc)
		return sc
	}
	cases := []struct {
		name string
		sc   *scenario.Scenario
		want string
	}{
		{"negative bw", golden(func(sc *scenario.Scenario) { sc.LinkBW = -1 }), "link bandwidth must be non-negative, got -1"},
		{"negative shards", golden(func(sc *scenario.Scenario) { sc.Shards = -1 }), "shards must be >= 0, got -1"},
		{"negative payload cap", golden(func(sc *scenario.Scenario) { sc.PayloadCap = -1 }), "payload cap must be >= 1, got -1"},
		{"negative dram", golden(func(sc *scenario.Scenario) { sc.DRAMPerNode = -1 }), "dram per node must be positive, got -1"},
		{"negative nvm", golden(func(sc *scenario.Scenario) { sc.NVMPerNode = -1 }), "nvm per node must be positive, got -1"},
		{"bad local", golden(func(sc *scenario.Scenario) { sc.Local.Policy = "xyz" }), `unknown local policy "xyz"`},
		{"bad remote", golden(func(sc *scenario.Scenario) { sc.Remote.Policy = "xyz" }), `unknown remote policy "xyz"`},
		{"bad bottom", golden(func(sc *scenario.Scenario) { sc.Bottom.Policy = "xyz" }), `unknown bottom policy "xyz"`},
		{"negative every", golden(func(sc *scenario.Scenario) { sc.Local.Every = -1 }), "local checkpoint interval must be >= 1, got -1"},
		{"failure off-cluster", golden(func(sc *scenario.Scenario) { sc.Failures[0].Node = 4 }), "failure 0: fault: node 4 outside cluster (nodes 0..3)"},
		{"failure at t=0", golden(func(sc *scenario.Scenario) { sc.Failures[0].AtSecs = 0 }), "failure 0: fault: event time 0s not positive"},
		{"negative group", golden(func(sc *scenario.Scenario) { sc.Remote = scenario.RemoteSpec{Policy: "erasure", Group: -3} }),
			"remote group must be >= 0, got -3"},
		{"negative stagger", golden(func(sc *scenario.Scenario) { sc.Remote.StaggerMax = -1 }), "stagger fields must be non-negative (max -1"},
		// Under a nanosecond below zero: a truncating lowering would read 0.
		{"negative stagger slot", golden(func(sc *scenario.Scenario) { sc.Remote.StaggerSlotSecs = -1e-10 }),
			"stagger fields must be non-negative (max 0, slot -1ns)"},
		{"bad failure kind", golden(func(sc *scenario.Scenario) { sc.Failures[0].Kind = "meteor" }), `failure 0: fault: unknown kind "meteor"`},
		{"negative chunks", golden(func(sc *scenario.Scenario) { sc.Failures[0].Chunks = -1 }), "failure 0: fault: negative chunk count -1"},
		{"factor out of range", golden(func(sc *scenario.Scenario) {
			sc.Failures[0] = scenario.FailureSpec{AtSecs: 10, Node: 1, Kind: "link-flap", DurationSecs: 1, Factor: 1}
		}), "failure 0: fault: link factor 1 outside [0,1)"},
		{"flap without duration", golden(func(sc *scenario.Scenario) {
			sc.Failures[0] = scenario.FailureSpec{AtSecs: 10, Node: 1, Kind: "link-flap"}
		}), "failure 0: fault: link-flap needs a positive duration"},
		{"model without horizon", golden(func(sc *scenario.Scenario) {
			sc.FaultModel = &scenario.FaultModelSpec{MTBFSoftSecs: 30}
		}), `scenario "golden": cluster: fault: model horizon 0s not positive`},
		{"model negative mtbf", golden(func(sc *scenario.Scenario) {
			sc.FaultModel = &scenario.FaultModelSpec{MTBFSoftSecs: -1, HorizonSecs: 60}
		}), "fault: negative model MTBF (soft -1s"},
		{"model all classes off", golden(func(sc *scenario.Scenario) {
			sc.FaultModel = &scenario.FaultModelSpec{HorizonSecs: 60}
		}), "fault: model needs at least one positive MTBF"},
		// Domain kinds and correlated MTBFs need a fleet topology.
		{"zone outage without fleet", golden(func(sc *scenario.Scenario) {
			sc.Failures = []scenario.FailureSpec{{AtSecs: 3, Kind: "zone-outage", Zone: 1}}
		}), "failure 0: fault: zone-outage needs a fleet topology"},
		{"rack mtbf without fleet", golden(func(sc *scenario.Scenario) {
			sc.FaultModel = &scenario.FaultModelSpec{MTBFRackSecs: 30, HorizonSecs: 10}
		}), "fault: model rack/zone MTBFs need a fleet topology"},
		{"bad slo", golden(func(sc *scenario.Scenario) {
			sc.SLO = &slo.Spec{Objectives: []slo.Objective{{Name: "x", Series: "no_such", Direction: slo.AtMost}}}
		}), `slo: objective "x" targets unknown series "no_such"`},
		{"bad drift", golden(func(sc *scenario.Scenario) {
			sc.Drift = &drift.Spec{Limits: []drift.Limit{{Quantity: "no_such", MaxRelErr: 0.5}}}
		}), `drift: limits[0]: unknown quantity "no_such"`},
		{"bad placement", fleet(func(sc *scenario.Scenario) { sc.Remote.Placement = "everywhere" }), "unknown placement"},
		{"empty domain", fleet(func(sc *scenario.Scenario) { sc.Failures[0].Zone = 9 }), "failure 0: fault: zone-outage targets empty domain"},
		{"domain with node", fleet(func(sc *scenario.Scenario) { sc.Failures[0].Node = 3 }), "failure 0: fault: zone-outage targets a domain, not a node"},
		{"storm origin off-fleet", fleet(func(sc *scenario.Scenario) { sc.Failures[2].Node = 99 }), "failure 2: fault: node 99 outside cluster (nodes 0..47)"},
	}
	// A refusal names only the offending field: not the default DRAM size
	// beside a bad NVM size, nor the remote interval beside a bad local one.
	otherField := map[string]string{"negative nvm": "51539607552", "negative every": "remote"}
	for _, tc := range cases {
		if err := tc.sc.Validate(); err != nil {
			t.Errorf("%s: Scenario.Validate checks a rule of the lowering: %v", tc.name, err)
		}
		_, err := FromScenario(tc.sc)
		if err == nil {
			t.Errorf("%s: FromScenario passed", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "scenario ") {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
		if other := otherField[tc.name]; other != "" && strings.Contains(err.Error(), other) {
			t.Errorf("%s: error %q names the valid %q too", tc.name, err, other)
		}
	}

	// The scenario's own rules still refuse first.
	base := func() *scenario.Scenario {
		return &scenario.Scenario{
			Nodes: 2, CoresPerNode: 2, Iterations: 1,
			Workload: scenario.WorkloadSpec{App: "gtc", CkptMB: 24, IterSecs: 2},
		}
	}
	bad := base()
	bad.Nodes = 0
	if _, err := FromScenario(bad); err == nil || !strings.Contains(err.Error(), "nodes must be >= 1") {
		t.Errorf("degenerate shape: %v", err)
	}
	// A config built without a scenario is held to the same group bound.
	cfg, err := FromScenario(base())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Remote, cfg.RemoteGroup = "erasure", -3
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "remote group must be >= 0, got -3") {
		t.Errorf("negative remote group: %v", err)
	}
	// A bottom tier with nothing to drain from is a build-time error.
	orphan := base()
	orphan.Local.Policy = "dcpcp"
	orphan.Bottom.Policy = "pfs-drain"
	if _, _, err := RunScenario(orphan); err == nil || !strings.Contains(err.Error(), "needs a remote tier") {
		t.Errorf("bottom without remote: %v", err)
	}
}

// TestFromScenarioAccepts: the test specs lower, the fleet's domain
// failures included, and so does every fault kind plus a stochastic model
// together. The returned config is not defaulted.
func TestFromScenarioAccepts(t *testing.T) {
	if _, err := FromScenario(fleetScenario()); err != nil {
		t.Errorf("fleet scenario refused: %v", err)
	}
	sc := goldenScenario()
	sc.Failures = []scenario.FailureSpec{
		{AtSecs: 5, Node: 0, Kind: "soft"},
		{AtSecs: 6, Node: 1, Kind: "hard"},
		{AtSecs: 7, Node: 2, Kind: "nvm-corrupt", Chunks: 3, Torn: true},
		{AtSecs: 8, Node: 3, Kind: "link-flap", DurationSecs: 2, Factor: 0.1},
		{AtSecs: 9, Node: 0, Kind: "buddy-loss"},
	}
	sc.FaultModel = &scenario.FaultModelSpec{MTBFSoftSecs: 120, MTBFHardSecs: 600, HorizonSecs: 300, Seed: 1}
	sc.FaultSeed = 7
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatalf("full fault taxonomy refused: %v", err)
	}
	if cfg.DRAMPerNode != 0 || cfg.LocalEvery != 0 {
		t.Errorf("FromScenario defaulted its config: dram %d, local every %d", cfg.DRAMPerNode, cfg.LocalEvery)
	}
}

// TestAutoRateCapLowersIntoConfig checks the declarative auto_rate_cap knob
// resolves to the paper's 2·D·ranks/interval shipping cap in the built Config.
func TestAutoRateCapLowersIntoConfig(t *testing.T) {
	sc := scenario.Base("gtc", scenario.ScaleTiny, 400e6)
	sc.Local.Policy = "dcpcp"
	sc.Remote = scenario.RemoteSpec{Policy: "buddy-precopy", AutoRateCap: true, Every: 2}
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	app, err := sc.AppSpec()
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.AutoRemoteRateCap(app.CheckpointSize(), sc.CoresPerNode, app.IterTime, 2)
	if cfg.RemoteRateCap != want || want <= 0 {
		t.Fatalf("RemoteRateCap = %g, want %g", cfg.RemoteRateCap, want)
	}
}
