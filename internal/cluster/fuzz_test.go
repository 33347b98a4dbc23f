package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nvmcp/internal/scenario"
)

// maxFuzzFleet bounds the fleets FuzzLoadLowers lowers: FromScenario
// expands the fleet, one shape, start time and coordinate per node.
const maxFuzzFleet = 4096

// FuzzLoadLowers holds FromScenario to its promise: lowering any spec
// scenario.Load accepts returns an error or a config New accepts (it passes
// setDefaults + Config.Validate), and never panics, so a bad file cannot
// get past FromScenario, and so past sweep lowering or the control plane,
// only to fail in New. The target never builds a machine (New, Execute),
// because fuzzed node counts are unbounded. The corpus starts from the
// checked-in scenario files, every cluster-shaped preset at tiny scale, and
// a tiny spec with each of payload_cap, dram_per_node and nvm_per_node
// negative.
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
			return
		}
		cfg.setDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("FromScenario returned a config New refuses: %v\n%s", err, data)
		}
	})
}
