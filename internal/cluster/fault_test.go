package cluster

import (
	"strings"
	"testing"
	"time"

	"nvmcp/internal/fault"
	"nvmcp/internal/scenario"
)

// The acceptance run for the fault framework: the checked-in cascade preset
// (link flap, latent NVM corruption, buddy loss) must recover through every
// tier and still end with the exact application state of a fault-free run.
func TestFaultCascadePresetRecoversThroughEveryTier(t *testing.T) {
	sc, err := scenario.BuildPreset("faults", scenario.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	faulted, _, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	clean := *sc
	clean.Failures = nil
	baseline, _, err := RunScenario(&clean)
	if err != nil {
		t.Fatal(err)
	}

	if faulted.FailuresInjected != 1 {
		t.Errorf("FailuresInjected = %d, want 1 (the buddy loss)", faulted.FailuresInjected)
	}
	if faulted.LinkFlaps != 1 {
		t.Errorf("LinkFlaps = %d, want 1", faulted.LinkFlaps)
	}
	if faulted.Corruptions == 0 {
		t.Error("nvm-corrupt fault damaged no chunks")
	}
	if faulted.ShipRetries == 0 {
		t.Error("link flap caused no helper ship retries")
	}
	if faulted.RecoveryRemote == 0 {
		t.Error("no chunks recovered from the remote tier")
	}
	if faulted.RecoveryBottom == 0 {
		t.Error("no chunks recovered from the bottom tier (corruption + buddy loss should force it)")
	}
	if faulted.RecoveryLost != 0 {
		t.Errorf("RecoveryLost = %d, want 0: every chunk had a surviving copy somewhere", faulted.RecoveryLost)
	}
	if faulted.MTTR <= 0 {
		t.Errorf("MTTR = %v, want > 0", faulted.MTTR)
	}
	if faulted.DegradedTime <= 0 {
		t.Errorf("DegradedTime = %v, want > 0", faulted.DegradedTime)
	}
	if faulted.WorkloadChecksum == 0 || baseline.WorkloadChecksum == 0 {
		t.Fatal("workload checksum not computed")
	}
	if faulted.WorkloadChecksum != baseline.WorkloadChecksum {
		t.Errorf("final state diverged: faulted %016x vs fault-free %016x",
			faulted.WorkloadChecksum, baseline.WorkloadChecksum)
	}
}

// Satellite: a failure that cannot be delivered is counted and reported,
// never silently dropped.
func TestFailureAfterCompletionIsCountedAsSkipped(t *testing.T) {
	cfg := smallCfg()
	cfg.Failures = []FailureEvent{{After: 24 * time.Hour, Node: 0}}
	res, _ := MustRun(cfg)
	if res.FailuresInjected != 0 {
		t.Fatalf("failure fired after completion: %d", res.FailuresInjected)
	}
	if res.FailuresSkipped != 1 {
		t.Fatalf("FailuresSkipped = %d, want 1", res.FailuresSkipped)
	}
}

func TestSecondFailureDuringRecoveryIsSkipped(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 4
	cfg.Failures = []FailureEvent{
		{After: 5 * time.Second, Node: 0},
		{After: 5100 * time.Millisecond, Node: 1}, // lands while recovery is pending
	}
	res, _ := MustRun(cfg)
	if res.FailuresInjected != 1 {
		t.Fatalf("FailuresInjected = %d, want 1", res.FailuresInjected)
	}
	if res.FailuresSkipped != 1 {
		t.Fatalf("FailuresSkipped = %d, want 1", res.FailuresSkipped)
	}
}

// The stochastic model plugs into the cluster config: MTBF-drawn soft
// failures fire and recover like scripted ones.
func TestStochasticFaultModelInjectsAndRecovers(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 4
	cfg.FaultModel = &fault.Model{
		MTBFSoft: 6 * time.Second,
		Horizon:  20 * time.Second,
		Seed:     2,
	}
	res, _ := MustRun(cfg)
	if res.FailuresInjected == 0 {
		t.Fatal("model with a 6s MTBF over a ~10s run injected nothing")
	}
	// Every drawn event is accounted for: delivered or counted as skipped.
	drawn := *cfg.FaultModel
	drawn.Nodes = cfg.Nodes
	if want := len(drawn.Schedule()); res.FailuresInjected+res.FailuresSkipped != want {
		t.Fatalf("injected %d + skipped %d != %d drawn events",
			res.FailuresInjected, res.FailuresSkipped, want)
	}
	if res.Restores == 0 {
		t.Fatal("no restores after stochastic soft failures")
	}
	if res.LocalCkpts < cfg.Iterations {
		t.Fatalf("LocalCkpts = %d, want >= %d: the job must still finish", res.LocalCkpts, cfg.Iterations)
	}
}

// Legacy configs (Hard bool, no Kind) and kind-tagged events must agree.
func TestEffectiveKindBackCompat(t *testing.T) {
	cases := []struct {
		ev   FailureEvent
		want fault.Kind
	}{
		{FailureEvent{}, fault.Soft},
		{FailureEvent{Hard: true}, fault.Hard},
		{FailureEvent{Kind: fault.BuddyLoss}, fault.BuddyLoss},
		{FailureEvent{Hard: true, Kind: fault.Hard}, fault.Hard},
	}
	for i, tc := range cases {
		if got := tc.ev.EffectiveKind(); got != tc.want {
			t.Errorf("case %d: EffectiveKind = %q, want %q", i, got, tc.want)
		}
	}
}

// TestNewRejectsBadFailures: cluster.New refuses a failure schedule that
// cannot run, whether fault.Event.Validate or the cluster's own hard/kind
// rule catches it.
func TestNewRejectsBadFailures(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    FailureEvent
		want string
	}{
		{"node out of range", FailureEvent{After: time.Second, Node: 2}, "node 2 outside cluster"},
		{"negative node", FailureEvent{After: time.Second, Node: -1}, "node -1 outside cluster"},
		{"time zero", FailureEvent{After: 0}, "not positive"},
		{"hard with soft kind", FailureEvent{After: time.Second, Hard: true, Kind: fault.Soft}, `sets hard but kind "soft"`},
		{"zone outage without topology", FailureEvent{After: time.Second, Kind: fault.ZoneOutage}, "needs a fleet topology"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Failures = []FailureEvent{tc.f}
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New: err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}
