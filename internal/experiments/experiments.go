// Package experiments implements one harness per table and figure of the
// paper's evaluation (plus the Section IV motivation experiment and three
// ablations), producing the same rows and series the paper reports. Each
// experiment has a Run function returning typed results and a Print function
// rendering them; All binds every one to its nvmcp-bench id, so
// cmd/nvmcp-bench and the quick golden read one table.
//
// Absolute numbers come from the simulation substrate, not the authors'
// testbed; the quantities to compare against the paper are the shapes —
// who wins, by roughly what factor, and where the crossovers fall.
// EXPERIMENTS.md records paper-vs-measured for every artifact.
package experiments

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/scenario"
)

// Scale selects experiment size: Quick for CI-friendly runs, Paper for the
// full 48-rank configuration of the evaluation.
type Scale int

const (
	// Quick runs 2 nodes x 4 cores with short runs.
	Quick Scale = iota
	// Paper runs 4 nodes x 12 cores (48 MPI processes) as in Section VI.
	Paper
)

func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "quick"
}

// Scenario maps the experiment scale onto the scenario layer's scale names.
func (s Scale) Scenario() scenario.Scale {
	if s == Paper {
		return scenario.ScalePaper
	}
	return scenario.ScaleQuick
}

// Experiment binds one nvmcp-bench id (a preset id) to its runner and text
// printer. Run's result is what `nvmcp-bench -json` serializes; Print renders
// that same result.
type Experiment struct {
	ID    string
	Run   func(Scale) any
	Print func(w io.Writer, result any)
}

// bind builds an Experiment from a typed runner and printer, so the result
// type assertion lives in one place and always matches the runner.
func bind[T any](id string, run func(Scale) T, print func(io.Writer, T)) Experiment {
	return Experiment{
		ID:    id,
		Run:   func(s Scale) any { return run(s) },
		Print: func(w io.Writer, r any) { print(w, r.(T)) },
	}
}

// fixed adapts the runner of an experiment whose size does not scale.
func fixed[T any](run func() T) func(Scale) T { return func(Scale) T { return run() } }

// local binds one of RunLocal's preset ids.
func local(id string) Experiment {
	return bind(id, func(s Scale) LocalResult { return RunLocal(id, s) }, PrintLocal)
}

// All is every nvmcp-bench experiment in the preset table's DESIGN.md §4
// order, the order `nvmcp-bench all` runs and -list prints.
var All = []Experiment{
	bind("tab1", fixed(func() string { return "device constants; see text output" }),
		func(w io.Writer, _ string) { PrintTable1(w) }),
	bind("madbench", fixed(RunMADBench), PrintMADBench),
	bind("fig4", fixed(RunFig4), PrintFig4),
	bind("tab4", fixed(RunTable4), PrintTable4),
	local("fig7"),
	local("fig8"),
	local("cm1"),
	bind("fig9", RunFig9, PrintFig9),
	bind("fig10", RunFig10, PrintFig10),
	bind("tab5", RunTable5, PrintTable5),
	bind("model", fixed(RunModel), PrintModel),
	bind("ablation-page", fixed(RunPageAblation), PrintPageAblation),
	bind("ablation-direct", fixed(RunDirectAblation), PrintDirectAblation),
	bind("ablation-serial", fixed(RunSerialAblation), PrintSerialAblation),
	bind("restart", fixed(RunRestart), PrintRestart),
	bind("transparent", fixed(RunTransparent), PrintTransparent),
	bind("failures", RunFailureModel, PrintFailureModel),
	bind("endurance", RunEndurance, PrintEndurance),
	bind("interval", RunInterval, PrintInterval),
	bind("redundancy", fixed(RunRedundancy), PrintRedundancy),
	bind("availability", RunAvailability, PrintAvailability),
	bind("fleet", RunFleet, PrintFleet),
	bind("hierarchy", RunHierarchy, PrintHierarchy),
}

// Lookup resolves an experiment by its id or its DESIGN.md id (e.g. F7).
func Lookup(name string) (Experiment, bool) {
	if p, ok := scenario.PresetByDesignID(name); ok {
		name = p.ID
	}
	for _, e := range All {
		if e.ID == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// BWSweepPerCore is the Figures 7/8 x-axis: effective NVM write bandwidth
// per core, descending (the paper sweeps decreasing parallel bandwidth; a
// 2 GB/s device split across 12 cores with DRAM interference leaves on the
// order of 100-400 MB/s per core, the regime where its 'no pre-copy'
// overheads reach ~15%).
var BWSweepPerCore = []float64{1600e6, 800e6, 400e6, 200e6, 100e6}

// lower turns a scenario an experiment derived from its preset into a cluster
// configuration. The presets are fixed and the experiments only re-point
// validated fields, so an error here is a programming error.
func lower(sc *scenario.Scenario) cluster.Config {
	cfg, err := cluster.FromScenario(sc)
	if err != nil {
		panic(err)
	}
	return cfg
}

// preset builds preset id's scenario at the experiment scale: the one
// definition of an experiment's machine and policy shape, which nvmcp-sim
// -preset runs too. Experiments change only the fields they sweep.
func preset(id string, scale Scale) *scenario.Scenario {
	sc, err := scenario.BuildPreset(id, scale.Scenario())
	if err != nil {
		panic(err)
	}
	return sc
}

// idealTime runs the no-checkpoint, no-failure configuration — the
// denominator of every efficiency and overhead number.
func idealTime(cfg cluster.Config) time.Duration {
	cfg.NoCheckpoint = true
	cfg.Local = "none"
	cfg.Remote = "none"
	cfg.Bottom = "none"
	res, _ := cluster.MustRun(cfg)
	return res.ExecTime
}

// overhead returns (actual-ideal)/ideal.
func overhead(actual, ideal time.Duration) float64 {
	return float64(actual-ideal) / float64(ideal)
}

// sweepWorkers bounds sweep's host-goroutine fan-out. One worker per host
// core: each point is a whole simulation (its own Env spawns a goroutine per
// simulated process), so oversubscribing beyond the core count only adds
// scheduler pressure and memory for stacks. Variable so tests can exercise
// the bound.
var sweepWorkers = runtime.GOMAXPROCS(0)

// sweep evaluates fn(i) for i in [0, n) on a bounded worker pool. Every
// point is an independent simulation with its own virtual clock, so parallel
// evaluation changes nothing about the (deterministic) results — it only
// uses the host's cores for the parameter sweep, the way an HPC parameter
// study would.
func sweep(n int, fn func(i int)) {
	workers := sweepWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
