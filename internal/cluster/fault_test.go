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
	cfg.Failures = []fault.Event{{At: 24 * time.Hour, Node: 0, Kind: fault.Soft}}
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
	cfg.Failures = []fault.Event{
		{At: 5 * time.Second, Node: 0, Kind: fault.Soft},
		{At: 5100 * time.Millisecond, Node: 1, Kind: fault.Soft}, // lands while recovery is pending
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
	if want := len(cfg.FaultModel.Schedule(cfg.Nodes, cfg.Topo)); res.FailuresInjected+res.FailuresSkipped != want {
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

// TestNewRejectsBadFailures: cluster.New refuses a failure schedule that
// fault.Event.Validate rejects.
func TestNewRejectsBadFailures(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    fault.Event
		want string
	}{
		{"node out of range", fault.Event{At: time.Second, Node: 2, Kind: fault.Soft}, "node 2 outside cluster"},
		{"negative node", fault.Event{At: time.Second, Node: -1, Kind: fault.Soft}, "node -1 outside cluster"},
		{"time zero", fault.Event{Kind: fault.Soft}, "not positive"},
		{"no kind", fault.Event{At: time.Second}, `unknown kind ""`},
		{"zone outage without topology", fault.Event{At: time.Second, Kind: fault.ZoneOutage}, "needs a fleet topology"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Failures = []fault.Event{tc.f}
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New: err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}
