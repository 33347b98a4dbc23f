package scenario_test

import (
	"strings"
	"testing"

	"nvmcp/internal/scenario"
)

func baseSweep() scenario.Sweep {
	return scenario.Sweep{Base: *fullScenario()}
}

func TestSweepExpandCartesianProduct(t *testing.T) {
	sw := baseSweep()
	sw.Axes = []scenario.Axis{
		{Field: "nvm_per_core_bw", Values: []interface{}{100e6, 200e6, 400e6}},
		{Field: "remote.every", Values: []interface{}{1, 2}},
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 6 {
		t.Fatalf("expanded %d scenarios, want 3x2=6", len(scs))
	}
	// Row-major order: the last axis varies fastest.
	wantNames := []string{
		"golden/nvm_per_core_bw=1e+08,remote.every=1",
		"golden/nvm_per_core_bw=1e+08,remote.every=2",
		"golden/nvm_per_core_bw=2e+08,remote.every=1",
		"golden/nvm_per_core_bw=2e+08,remote.every=2",
		"golden/nvm_per_core_bw=4e+08,remote.every=1",
		"golden/nvm_per_core_bw=4e+08,remote.every=2",
	}
	for i, sc := range scs {
		if sc.Name != wantNames[i] {
			t.Errorf("point %d named %q, want %q", i, sc.Name, wantNames[i])
		}
	}
	if scs[0].NVMPerCoreBW != 100e6 || scs[0].Remote.Every != 1 {
		t.Errorf("point 0 = bw %g every %d", scs[0].NVMPerCoreBW, scs[0].Remote.Every)
	}
	if scs[5].NVMPerCoreBW != 400e6 || scs[5].Remote.Every != 2 {
		t.Errorf("point 5 = bw %g every %d", scs[5].NVMPerCoreBW, scs[5].Remote.Every)
	}
	// The base must be untouched by expansion.
	if sw.Base.NVMPerCoreBW != 400e6 {
		t.Errorf("expansion mutated the base: bw %g", sw.Base.NVMPerCoreBW)
	}
}

func TestSweepNoAxesYieldsBase(t *testing.T) {
	sw := baseSweep()
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("expanded %d scenarios, want 1", len(scs))
	}
	if scs[0].Name != "golden/" && scs[0].NVMPerCoreBW != sw.Base.NVMPerCoreBW {
		t.Fatalf("lone point does not match the base: %+v", scs[0])
	}
}

func TestSweepCreatesOmittedSections(t *testing.T) {
	sw := baseSweep()
	sw.Base.Bottom = scenario.BottomSpec{} // section omitted from JSON entirely
	sw.Axes = []scenario.Axis{{Field: "bottom.policy", Values: []interface{}{"none", "pfs-drain"}}}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 || scs[1].Bottom.Policy != "pfs-drain" {
		t.Fatalf("nested path on omitted section failed: %+v", scs)
	}
}

func TestSweepRejectsUnknownField(t *testing.T) {
	sw := baseSweep()
	sw.Axes = []scenario.Axis{{Field: "remote.evry", Values: []interface{}{1}}}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "evry") {
		t.Fatalf("typoed axis field not rejected: %v", err)
	}
}

func TestSweepRejectsInvalidPoint(t *testing.T) {
	sw := baseSweep()
	sw.Axes = []scenario.Axis{{Field: "workload.app", Values: []interface{}{"gtc", "bogus"}}}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), `unknown workload "bogus"`) {
		t.Fatalf("invalid point not rejected: %v", err)
	}
}

func TestSweepAxisShapeErrors(t *testing.T) {
	sw := baseSweep()
	sw.Axes = []scenario.Axis{{Field: "", Values: []interface{}{1}}}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "has no field") {
		t.Fatalf("empty field: %v", err)
	}
	sw.Axes = []scenario.Axis{{Field: "iterations"}}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "has no values") {
		t.Fatalf("empty values: %v", err)
	}
}

func TestLoadSweep(t *testing.T) {
	src := `{
	  "base": {
	    "name": "bwsweep",
	    "nodes": 2, "cores_per_node": 2, "iterations": 2,
	    "workload": {"app": "gtc", "ckpt_mb": 24, "iter_secs": 2},
	    "local": {"policy": "dcpcp"}
	  },
	  "axes": [{"field": "nvm_per_core_bw", "values": [200e6, 400e6]}]
	}`
	sw, err := scenario.LoadSweep(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 || scs[0].NVMPerCoreBW != 200e6 || scs[1].NVMPerCoreBW != 400e6 {
		t.Fatalf("loaded sweep expanded wrong: %+v", scs)
	}
	if _, err := scenario.LoadSweep(strings.NewReader(`{"bse": {}}`)); err == nil {
		t.Fatal("unknown top-level sweep field not rejected")
	}
}
