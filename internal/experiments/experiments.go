// Package experiments implements one harness per table and figure of the
// paper's evaluation (plus the Section IV motivation experiment and three
// ablations), producing the same rows and series the paper reports. Each
// experiment has a Run function returning typed results and a Print function
// rendering them; cmd/nvmcp-bench and the top-level benchmarks are thin
// wrappers over these.
//
// Absolute numbers come from the simulation substrate, not the authors'
// testbed; the quantities to compare against the paper are the shapes —
// who wins, by roughly what factor, and where the crossovers fall.
// EXPERIMENTS.md records paper-vs-measured for every artifact.
package experiments

import (
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
