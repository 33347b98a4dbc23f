package cluster

import (
	"path/filepath"
	"strings"
	"testing"

	"nvmcp/internal/scenario"
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

// TestErasureScenarioFromFile is the acceptance check that a new remote tier
// composes purely from a JSON file: the shipped erasure scenario must run with
// no cluster code knowing anything erasure-specific.
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

func TestFromScenarioErrors(t *testing.T) {
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
	bad = base()
	bad.Remote.Policy = "carrier-pigeon"
	if _, err := FromScenario(bad); err == nil || !strings.Contains(err.Error(), `unknown remote policy "carrier-pigeon"`) {
		t.Errorf("unknown policy: %v", err)
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
