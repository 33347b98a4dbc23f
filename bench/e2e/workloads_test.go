package main

import (
	"math"
	"testing"

	"nvmcp/internal/cluster"
)

func TestEveryWorkloadBuildsAndValidates(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, 7} {
			scs, err := w.scenarios(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if len(scs) == 0 {
				t.Fatalf("%s seed %d: no scenarios", w.name, seed)
			}
			for _, sc := range scs {
				if _, err := cluster.FromScenario(sc); err != nil {
					t.Errorf("%s seed %d: %v", w.name, seed, err)
				}
				if _, err := cluster.FromScenario(plainTwin(sc)); err != nil {
					t.Errorf("%s seed %d: plain twin: %v", w.name, seed, err)
				}
			}
		}
	}
}

func TestSeedMapping(t *testing.T) {
	w, _ := workloadByName("fleet-1k-zone")
	base, _ := w.scenarios(defaultSeed)
	if f := base[0].Failures[0]; f.Provider != 0 || f.Zone != 1 {
		t.Errorf("seed 42 fails provider %d zone %d, want the matrix's 0/1", f.Provider, f.Zone)
	}
	shifted, _ := w.scenarios(defaultSeed + 5)
	if f := shifted[0].Failures[0]; f.Provider != 1 || f.Zone != 2 {
		t.Errorf("seed 47 fails provider %d zone %d, want 1/2", f.Provider, f.Zone)
	}
	if below, _ := w.scenarios(defaultSeed - 2); below[0].Failures[0].Zone != 3 || below[0].Failures[0].Provider != 1 {
		t.Errorf("seed 40 fails %+v, want provider 1 zone 3", below[0].Failures[0])
	}
	if shifted[0].Fleet.Seed != base[0].Fleet.Seed {
		t.Errorf("fleet generator seed moved from %d to %d", base[0].Fleet.Seed, shifted[0].Fleet.Seed)
	}
	if got := shifted[0].FaultSeed - base[0].FaultSeed; got != 5 {
		t.Errorf("fault seed shifted by %d, want 5", got)
	}
	g, _ := workloadByName("gtc-paper")
	sc, _ := g.scenarios(defaultSeed + 5)
	if sc[0].FaultSeed != 0 {
		t.Errorf("gtc-paper declares no seed but got fault seed %d", sc[0].FaultSeed)
	}
}

// TestTinySweepPassesCorrectnessChecks runs the tiny-scale workload through
// both passes: every run must match its plain twins and the warm-up digest,
// and the traced pass must attribute every CPU sample to a layer.
func TestTinySweepPassesCorrectnessChecks(t *testing.T) {
	w, _ := workloadByName("preset-sweep-tiny")
	s, err := newSession(w, defaultSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.measureEndToEnd(budget{runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := s.measureLayers(budget{runs: 1}, e.RawWallMedianS)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 || s.attempted != 4 {
		t.Fatalf("%d of %d runs failed: %v", s.failed, s.attempted, s.problems)
	}
	for _, m := range e2eMetrics {
		st := e.Metrics[m.name]
		if st.N < 2 || !(st.Median > 0) || math.IsInf(st.Median, 0) {
			t.Errorf("%s: %+v, want a positive median over >= 2 samples", m.name, st)
		}
	}
	if e.Metrics["setup_s"].N < minSetupSamples {
		t.Errorf("setup_s has %d samples, want >= %d", e.Metrics["setup_s"].N, minSetupSamples)
	}
	if lp.CPUSamples > 0 {
		sum := 0.0
		for _, f := range lp.CPUFrac {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("cpu fractions sum to %v, want 1", sum)
		}
	}
	if lp.WorkCounts["sim.events"] <= 0 || lp.WorkCounts["core.chunks_staged"] <= 0 {
		t.Errorf("work counts missing: %v", lp.WorkCounts)
	}
}

func TestDigestMismatchFailsTheRun(t *testing.T) {
	w, _ := workloadByName("preset-sweep-tiny")
	s, err := newSession(w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s.digest++ // as if the warm-up run had produced different outputs
	s.run(false)
	if s.failed != 1 {
		t.Fatalf("run with a diverging digest counted %d failures, want 1", s.failed)
	}
	s.twins[0]++ // as if recovery had lost the plain twin's final state
	if r := runOnce(w, defaultSeed, s.twins, false); r.problem == "" {
		t.Fatal("run with a diverging workload checksum passed")
	}
}
