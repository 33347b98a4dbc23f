package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nvmcp/internal/fault"
	"nvmcp/internal/mem"
	"nvmcp/internal/scenario"
	"nvmcp/internal/workload"
)

// smallApp is a fast two-chunk workload for cluster plumbing tests.
func smallApp() workload.AppSpec {
	return workload.AppSpec{
		Name: "tiny",
		Chunks: []workload.ChunkSpec{
			{Name: "field", Size: 40 * mem.MB, ModPhases: []float64{0.5}},
			{Name: "static", Size: 20 * mem.MB, InitOnly: true},
		},
		IterTime: 2 * time.Second,
	}
}

func smallCfg() Config {
	return Config{
		Nodes:        2,
		CoresPerNode: 2,
		App:          smallApp(),
		Iterations:   3,
	}
}

func TestRunCompletesAllIterations(t *testing.T) {
	cfg := smallCfg()
	res, _ := MustRun(cfg)
	if res.LocalCkpts != cfg.Iterations {
		t.Fatalf("LocalCkpts = %d, want %d", res.LocalCkpts, cfg.Iterations)
	}
	if res.ExecTime < 6*time.Second {
		t.Fatalf("ExecTime = %v, implausibly short", res.ExecTime)
	}
	if res.Ranks != 4 {
		t.Fatalf("Ranks = %d", res.Ranks)
	}
}

func TestDirtyTrackingSkipsInitOnlyChunks(t *testing.T) {
	cfg := smallCfg()
	cfg.Local = "none"
	tracked, _ := MustRun(cfg)
	cfg2 := smallCfg()
	cfg2.ForceFull = true
	full, _ := MustRun(cfg2)
	// Tracked: init-only 20MB copied once; full: every checkpoint.
	perIterExtra := float64(20*mem.MB) * float64(cfg.Iterations-1)
	gotExtra := full.DataToNVMPerRank - tracked.DataToNVMPerRank
	if gotExtra < perIterExtra*0.9 || gotExtra > perIterExtra*1.1 {
		t.Fatalf("extra data in full mode = %v, want ~%v", gotExtra, perIterExtra)
	}
}

func TestPreCopyShrinksBlockingCheckpointTime(t *testing.T) {
	base := smallCfg()
	base.ForceFull = true
	noPre, _ := MustRun(base)

	pre := smallCfg()
	pre.Local = "cpc"
	withPre, _ := MustRun(pre)

	if withPre.CkptTimePerRank >= noPre.CkptTimePerRank {
		t.Fatalf("pre-copy ckpt time %v not below baseline %v",
			withPre.CkptTimePerRank, noPre.CkptTimePerRank)
	}
	if withPre.PreCopyBytes == 0 {
		t.Fatal("no pre-copy bytes recorded")
	}
	if withPre.ExecTime > noPre.ExecTime {
		t.Fatalf("pre-copy run slower overall: %v vs %v", withPre.ExecTime, noPre.ExecTime)
	}
}

func TestNoCheckpointIsFastest(t *testing.T) {
	ideal := smallCfg()
	ideal.NoCheckpoint = true
	idealRes, _ := MustRun(ideal)

	real := smallCfg()
	real.ForceFull = true
	realRes, _ := MustRun(real)

	if idealRes.ExecTime >= realRes.ExecTime {
		t.Fatalf("ideal run (%v) not faster than checkpointed run (%v)",
			idealRes.ExecTime, realRes.ExecTime)
	}
	if idealRes.LocalCkpts != 0 {
		t.Fatalf("ideal run performed %d checkpoints", idealRes.LocalCkpts)
	}
}

func TestRemoteCheckpointsTriggerEveryK(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 4
	cfg.Remote = "buddy-burst"
	cfg.RemoteEvery = 2
	res, c := MustRun(cfg)
	if res.RemoteCkpts != 2 {
		t.Fatalf("RemoteCkpts = %d, want 2", res.RemoteCkpts)
	}
	if got := c.Obs.Registry().Counter("helper_ships", nil).Get(); got == 0 {
		t.Fatal("no chunks shipped to buddies")
	}
	if len(res.HelperUtil) != cfg.Nodes {
		t.Fatalf("HelperUtil entries = %d, want %d", len(res.HelperUtil), cfg.Nodes)
	}
	for _, u := range res.HelperUtil {
		if u <= 0 || u > 0.9 {
			t.Fatalf("helper utilization = %v, want small positive", u)
		}
	}
}

func TestRemotePreCopyMovesDataBeforeTrigger(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 4
	cfg.Remote = "buddy-precopy"
	cfg.RemoteEvery = 4
	cfg.Local = "cpc" // stages chunks early so the helper can ship
	res, c := MustRun(cfg)
	if res.RemoteCkpts != 1 {
		t.Fatalf("RemoteCkpts = %d, want 1", res.RemoteCkpts)
	}
	if got := c.Obs.Registry().Counter("helper_ships", nil).Get(); got == 0 {
		t.Fatal("pre-copy helper shipped nothing")
	}
}

func TestSoftFailureRecoversFromLocalNVM(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 4
	// Fail after the second checkpoint (~2 iterations of 2s + ckpt time).
	cfg.Failures = []fault.Event{{At: 5 * time.Second, Node: 0, Kind: fault.Soft}}
	res, _ := MustRun(cfg)
	if res.FailuresInjected != 1 {
		t.Fatalf("FailuresInjected = %d", res.FailuresInjected)
	}
	if res.Restores == 0 {
		t.Fatal("no local restores after soft failure")
	}
	// All iterations still completed (job finished after recovery).
	if res.LocalCkpts < cfg.Iterations {
		t.Fatalf("LocalCkpts = %d, want >= %d (redone work counts)", res.LocalCkpts, cfg.Iterations)
	}
}

func TestHardFailureRecoversFromBuddy(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 4
	cfg.Remote = "buddy-burst"
	cfg.RemoteEvery = 1 // remote checkpoint every iteration
	cfg.Failures = []fault.Event{{At: 7 * time.Second, Node: 0, Kind: fault.Hard}}
	res, _ := MustRun(cfg)
	if res.FailuresInjected != 1 {
		t.Fatalf("FailuresInjected = %d", res.FailuresInjected)
	}
	if res.RemoteRestores == 0 {
		t.Fatal("hard-failed node did not recover chunks from its buddy")
	}
	// The surviving node restores locally.
	if res.Restores == 0 {
		t.Fatal("surviving node did not restore locally")
	}
}

func TestLocalEverySkipsIntermediateCheckpoints(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 6
	cfg.LocalEvery = 3
	res, _ := MustRun(cfg)
	if res.LocalCkpts != 2 {
		t.Fatalf("LocalCkpts = %d, want 2 (every 3rd of 6 iterations)", res.LocalCkpts)
	}
}

func TestLocalEveryRecoveryRollsBackToCheckpointBoundary(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 6
	cfg.LocalEvery = 2
	// Fail mid-way: after the iter-1 checkpoint (~4s+ckpt), during iter 2/3.
	cfg.Failures = []fault.Event{{At: 7 * time.Second, Node: 0, Kind: fault.Soft}}
	res, _ := MustRun(cfg)
	if res.FailuresInjected != 1 {
		t.Fatalf("FailuresInjected = %d", res.FailuresInjected)
	}
	// The run still completes all 6 iterations, re-running the lost ones:
	// checkpoints = 3 scheduled + redone rounds >= 3.
	if res.LocalCkpts < 3 {
		t.Fatalf("LocalCkpts = %d, want >= 3", res.LocalCkpts)
	}
	if res.Restores == 0 {
		t.Fatal("no restores after failure")
	}
}

func TestTracerRecordsTimeline(t *testing.T) {
	cfg := smallCfg()
	cfg.Remote = "buddy-burst"
	cfg.RemoteEvery = 1
	cfg.Failures = []fault.Event{{At: 3 * time.Second, Node: 0, Kind: fault.Soft}}
	out := string(chromeTrace(t, cfg))
	for _, want := range []string{`"iter 0"`, `"local ckpt"`, `"remote trigger"`, `"soft failure"`, `"ship `, `"node1"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := smallCfg()
	cfg.Local = "dcpcp"
	cfg.Remote = "buddy-precopy"
	cfg.RemoteEvery = 2
	first, _ := MustRun(cfg)
	for i := 0; i < 3; i++ {
		got, _ := MustRun(cfg)
		if got.ExecTime != first.ExecTime ||
			got.DataToNVMPerRank != first.DataToNVMPerRank ||
			got.CkptTimePerRank != first.CkptTimePerRank {
			t.Fatalf("run %d differs: %+v vs %+v", i, got, first)
		}
	}
}

func TestCommunicationContendWithRemoteCheckpoint(t *testing.T) {
	app := smallApp()
	app.CommPerIter = 200 * mem.MB

	// A slow link keeps checkpoint shipping in flight long enough to meet
	// the application's communication bursts.
	quiet := Config{Nodes: 2, CoresPerNode: 2, App: app, Iterations: 3, LinkBW: 100e6}
	quietRes, _ := MustRun(quiet)

	noisy := quiet
	noisy.Remote = "buddy-burst"
	noisy.RemoteEvery = 1
	noisyRes, _ := MustRun(noisy)

	if noisyRes.ExecTime <= quietRes.ExecTime {
		t.Fatalf("remote checkpoint traffic added no noise: %v vs %v",
			noisyRes.ExecTime, quietRes.ExecTime)
	}
}

// TestExecuteLeavesNoGoroutines: a finished run leaves no simulated process
// suspended on a host goroutine, so a resident control plane running job
// after job does not accumulate them.
func TestExecuteLeavesNoGoroutines(t *testing.T) {
	for _, id := range []string{"slo-paper", "faults", "fig9", "erasure"} {
		sc, err := scenario.BuildPreset(id, scenario.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := FromScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		start := runtime.NumGoroutine()
		if _, _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := runtime.NumGoroutine(); n > start {
			t.Errorf("%s: NumGoroutine = %d after Execute, want at most %d", id, n, start)
		}
	}
}
