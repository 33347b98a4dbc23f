package cluster

import (
	"strings"
	"testing"
	"time"

	"nvmcp/internal/fault"
	"nvmcp/internal/obs"
	"nvmcp/internal/scenario"
)

// staggerScenario is a drain-burst magnet: eight nodes whose only remote
// round lands on the same coordinated checkpoint, with burst-mode buddies
// (no background pre-copy shipping), so unstaggered drains all hit the
// fabric inside one peak window.
func staggerScenario(staggered bool) *scenario.Scenario {
	sc := &scenario.Scenario{
		Name:         "stagger-probe",
		Nodes:        8,
		CoresPerNode: 2,
		NVMPerCoreBW: 400e6,
		LinkBW:       250e6,
		Workload:     scenario.WorkloadSpec{App: "cm1", CkptMB: 24, IterSecs: 2},
		Iterations:   4,
		Local:        scenario.LocalSpec{Policy: "dcpcp"},
		Remote:       scenario.RemoteSpec{Policy: "buddy-burst", AutoRateCap: true, Every: 4},
		PayloadCap:   1024,
	}
	if staggered {
		sc.Remote.StaggerMax = 1
		sc.Remote.StaggerSlotSecs = 1.5
	}
	return sc
}

func runScenario(t *testing.T, sc *scenario.Scenario) Result {
	t.Helper()
	res, _, err := RunScenario(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return res
}

// TestStaggerLowersPeakWindow is the control plane's headline effect: gating
// node drains through the stagger gate must cut the Figure 10 peak
// interconnect quantity, and — because drains only move already-snapshotted
// data later — must leave the workload's final state untouched.
func TestStaggerLowersPeakWindow(t *testing.T) {
	base := runScenario(t, staggerScenario(false))
	stag := runScenario(t, staggerScenario(true))

	if base.PeakCkptWindowBytes <= 0 {
		t.Fatalf("baseline run moved no ckpt bytes on the fabric: %+v", base)
	}
	if stag.PeakCkptWindowBytes >= base.PeakCkptWindowBytes {
		t.Fatalf("staggering did not lower the peak window: staggered %.0f >= baseline %.0f",
			stag.PeakCkptWindowBytes, base.PeakCkptWindowBytes)
	}
	if stag.DrainGrants == 0 {
		t.Fatal("staggered run recorded no drain grants")
	}
	if stag.DrainMaxQueued == 0 {
		t.Fatal("staggered run recorded no drain queueing — the gate never backpressured")
	}
	if base.DrainGrants != 0 {
		t.Fatalf("unstaggered run recorded %d drain grants, want 0", base.DrainGrants)
	}
	if stag.WorkloadChecksum != base.WorkloadChecksum {
		t.Fatalf("staggering changed the workload checksum: %016x != %016x",
			stag.WorkloadChecksum, base.WorkloadChecksum)
	}
}

// TestReplanOnZoneOutage: with replan-on-failure armed, a zone outage makes
// the buddy tier recompute placement avoiding the dead zone before the next
// epoch, and the run still converges with nothing lost.
func TestReplanOnZoneOutage(t *testing.T) {
	p, ok := scenario.PresetByID("fleet-zone")
	if !ok {
		t.Fatal("fleet-zone preset missing")
	}
	sc := p.Build(scenario.ScaleTiny)
	sc.Remote.Replan = true
	res, c, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailuresInjected != 1 {
		t.Fatalf("injected %d failures, want 1", res.FailuresInjected)
	}
	if res.Replans != 1 {
		t.Fatalf("replans = %d, want 1", res.Replans)
	}
	if got := c.Obs.EventCount(obs.EvReplan); got != 1 {
		t.Fatalf("EvReplan count = %d, want 1", got)
	}
	if res.RecoveryLost != 0 {
		t.Fatalf("replanned run lost %d chunks, want 0", res.RecoveryLost)
	}
}

// TestReplanUnderErasureIsNoop: the erasure tier has no holder ring to
// re-home, so a replan-armed zone outage under it re-plans nothing.
func TestReplanUnderErasureIsNoop(t *testing.T) {
	p, ok := scenario.PresetByID("fleet-zone")
	if !ok {
		t.Fatal("fleet-zone preset missing")
	}
	sc := p.Build(scenario.ScaleTiny)
	sc.Remote.Policy = "erasure"
	sc.Remote.Replan = true
	res, c, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailuresInjected != 1 {
		t.Fatalf("injected %d failures, want 1", res.FailuresInjected)
	}
	if res.Replans != 0 {
		t.Fatalf("replans = %d, want 0", res.Replans)
	}
	if got := c.Obs.EventCount(obs.EvReplan); got != 0 {
		t.Fatalf("EvReplan count = %d, want 0", got)
	}
}

// TestControlTickLiveInjection drives the in-run command path the control
// plane uses: an OnTick hook injects a failure into the live run, and the
// injector treats it exactly like a pre-scheduled fault.
func TestControlTickLiveInjection(t *testing.T) {
	sc, err := scenario.BuildPreset("quick", scenario.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	cfg.Control = &Control{
		OnTick: func(c *Cluster, now time.Duration) {
			if injected {
				return
			}
			injected = true
			if err := c.Inject(fault.Event{At: now + 500*time.Millisecond, Node: 0, Kind: fault.Soft}); err != nil {
				t.Errorf("live inject: %v", err)
			}
		},
	}
	res, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailuresInjected != 1 {
		t.Fatalf("injected %d failures, want 1", res.FailuresInjected)
	}
	if res.RecoveryLost != 0 {
		t.Fatalf("lost %d chunks, want 0", res.RecoveryLost)
	}
}

// TestControlAbort: an abort from a control tick kills the ranks, lets the
// driver tear down cleanly, and surfaces as an Execute error plus an EvAbort
// on the bus.
func TestControlAbort(t *testing.T) {
	sc, err := scenario.BuildPreset("quick", scenario.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Control = &Control{
		OnTick: func(c *Cluster, now time.Duration) { c.Abort("test-stop") },
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Execute()
	if err == nil || !strings.Contains(err.Error(), "aborted: test-stop") {
		t.Fatalf("Execute err = %v, want abort error", err)
	}
	if c.Aborted() != "test-stop" {
		t.Fatalf("Aborted() = %q", c.Aborted())
	}
	if got := c.Obs.EventCount(obs.EvAbort); got != 1 {
		t.Fatalf("EvAbort count = %d, want 1", got)
	}
}

// TestInjectNeedsControl: live injection without a Control-enabled run (no
// injector) must fail loudly instead of silently dropping the fault.
func TestInjectNeedsControl(t *testing.T) {
	sc, err := scenario.BuildPreset("quick", scenario.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Inject(fault.Event{At: time.Second, Kind: fault.Soft}); err == nil {
		t.Fatal("Inject on a Control-less cluster: want error")
	}
}
