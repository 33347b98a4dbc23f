package scenario_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nvmcp/internal/scenario"
)

// FuzzLoad feeds arbitrary bytes to Load. Load must never panic, and every
// spec it accepts must Marshal and Load again: a scenario that validates
// once but not after its own round trip could not be saved and re-run. The
// corpus starts from the checked-in scenario files, every cluster-shaped
// preset at tiny scale, and the largest fleet Load accepts (maxFleetSpec):
// Load builds no fleet, so a fuzzed node count up to MaxFleetNodes costs
// no more than a small one.
//
//	go test ./internal/scenario -run '^$' -fuzz FuzzLoad -fuzztime 60s
func FuzzLoad(f *testing.F) {
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
	for _, id := range scenario.PresetIDs() {
		p, _ := scenario.PresetByID(id)
		if !p.ClusterShaped() {
			continue
		}
		buf, err := p.Build(scenario.ScaleTiny).Marshal()
		if err != nil {
			f.Fatalf("%s: %v", id, err)
		}
		f.Add(buf)
	}
	buf, err := maxFleetSpec().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := scenario.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		buf, err := sc.Marshal()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		if _, err := scenario.Load(bytes.NewReader(buf)); err != nil {
			t.Fatalf("accepted spec does not round-trip: %v\n%s", err, buf)
		}
	})
}

// FuzzFleetExpand builds fleet specs from fuzzed fields. Every spec that
// Validate accepts must Expand, to one shape and one start time per node,
// with every node's coordinate inside the spec's domain counts at each
// level: a domain count that overflows the topology's arithmetic deals
// nodes into negative or out-of-range zones.
//
//	go test ./internal/scenario -run '^$' -fuzz FuzzFleetExpand -fuzztime 60s
func FuzzFleetExpand(f *testing.F) {
	add := func(fs *scenario.FleetSpec) {
		w2, c2 := 0.0, 0
		if len(fs.Templates) > 1 {
			w2, c2 = fs.Templates[1].Weight, fs.Templates[1].Cores
		}
		f.Add(fs.Nodes, fs.Seed, fs.Providers, fs.ZonesPerProvider, fs.RacksPerZone,
			fs.Templates[0].Weight, fs.Templates[0].Cores, w2, c2,
			fs.Startup.Pattern, fs.Startup.SpreadSecs, fs.Startup.Waves, fs.Startup.JitterSecs)
	}
	for _, id := range scenario.PresetIDs() {
		p, _ := scenario.PresetByID(id)
		if !p.ClusterShaped() {
			continue
		}
		if fs := p.Build(scenario.ScaleTiny).Fleet; fs != nil {
			add(fs)
		}
	}
	add(&scenario.FleetSpec{Nodes: 4, Providers: 3, ZonesPerProvider: math.MaxInt32, RacksPerZone: math.MaxInt32,
		Templates: []scenario.NodeTemplate{{Weight: 1, Cores: 1}}})
	f.Fuzz(func(t *testing.T, nodes int, seed int64, providers, zones, racks int,
		w1 float64, c1 int, w2 float64, c2 int, pattern string, spread float64, waves int, jitter float64) {
		fs := &scenario.FleetSpec{
			Nodes: nodes, Seed: seed, Providers: providers, ZonesPerProvider: zones, RacksPerZone: racks,
			Templates: []scenario.NodeTemplate{{Name: "a", Weight: w1, Cores: c1}},
			Startup:   scenario.StartupSpec{Pattern: pattern, SpreadSecs: spread, Waves: waves, JitterSecs: jitter},
		}
		if c2 != 0 {
			fs.Templates = append(fs.Templates, scenario.NodeTemplate{Name: "b", Weight: w2, Cores: c2})
		}
		if fs.Validate() != nil {
			return
		}
		fleet, err := fs.Expand()
		if err != nil {
			t.Fatalf("validated spec does not expand: %v\n%+v", err, fs)
		}
		if len(fleet.Shapes) != nodes || len(fleet.Start) != nodes || fleet.Topo.Nodes() != nodes {
			t.Fatalf("%d nodes expand to %d shapes, %d start times, %d coordinates",
				nodes, len(fleet.Shapes), len(fleet.Start), fleet.Topo.Nodes())
		}
		atLeast1 := func(n int) int { return max(n, 1) }
		for n := 0; n < nodes; n++ {
			c := fleet.Topo.Coord(n)
			if c.Provider < 0 || c.Provider >= atLeast1(providers) || c.Zone < 0 || c.Zone >= atLeast1(zones) ||
				c.Rack < 0 || c.Rack >= atLeast1(racks) {
				t.Fatalf("node %d at %+v, outside %d × %d × %d domains", n, c, providers, zones, racks)
			}
		}
	})
}
