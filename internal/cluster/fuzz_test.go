package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nvmcp/internal/scenario"
)

// maxFuzzFleet bounds the fleets FuzzLoadLowers loads: scenario.Load builds
// the fleet topology, one coordinate per node.
const maxFuzzFleet = 4096

// FuzzLoadLowers holds scenario validation to the cluster's own rules:
// every spec scenario.Load accepts must lower through FromScenario and pass
// setDefaults + Config.Validate, so a bad file cannot get past sweep
// expansion or the control plane only to fail in New. The target never
// builds a machine (New, Execute), because fuzzed node counts are
// unbounded. The corpus starts from the checked-in scenario files, every
// cluster-shaped preset at tiny scale, and a tiny spec with each of
// payload_cap, dram_per_node and nvm_per_node negative.
//
//	go test ./internal/cluster -run '^$' -fuzz FuzzLoadLowers -fuzztime 60s -parallel 2
func FuzzLoadLowers(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "docs", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	add := func(sc *scenario.Scenario) {
		buf, err := sc.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, p := range scenario.Presets() {
		if p.ClusterShaped() {
			add(p.Build(scenario.ScaleTiny))
		}
	}
	for _, bad := range []func(*scenario.Scenario){
		func(sc *scenario.Scenario) { sc.PayloadCap = -1 },
		func(sc *scenario.Scenario) { sc.DRAMPerNode = -1 },
		func(sc *scenario.Scenario) { sc.NVMPerNode = -1 },
	} {
		sc := scenario.Base("gtc", scenario.ScaleTiny, 0)
		bad(sc)
		add(sc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe scenario.Scenario
		if json.NewDecoder(bytes.NewReader(data)).Decode(&probe) == nil &&
			probe.Fleet != nil && probe.Fleet.Nodes > maxFuzzFleet {
			return
		}
		sc, err := scenario.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg, err := FromScenario(sc)
		if err != nil {
			t.Fatalf("Load accepted a spec FromScenario refuses: %v\n%s", err, data)
		}
		cfg.setDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Load accepted a spec the cluster refuses: %v\n%s", err, data)
		}
	})
}
