package scenario_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nvmcp/internal/scenario"
)

// FuzzLoad feeds arbitrary bytes to Load. Load must never panic, and every
// spec it accepts must Marshal and Load again: a scenario that validates
// once but not after its own round trip could not be saved and re-run. The
// corpus starts from the checked-in scenario files and every cluster-shaped
// preset at tiny scale.
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
