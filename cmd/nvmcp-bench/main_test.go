package main

import (
	"regexp"
	"strings"
	"testing"

	"nvmcp/internal/scenario"
)

// TestUsageNamesEveryRunner keeps -help in step with the runner table: each
// experiment id must head a line of the experiment list.
func TestUsageNamesEveryRunner(t *testing.T) {
	var sb strings.Builder
	writeUsage(&sb)
	out := sb.String()
	for id := range runners {
		if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(id) + `\s`).MatchString(out) {
			t.Errorf("usage does not list experiment %q:\n%s", id, out)
		}
	}
}

// TestRunnersArePresets holds bench and sim to one namespace: every runner
// id is a preset id, so -list, DESIGN.md ids and `all` ordering resolve it.
func TestRunnersArePresets(t *testing.T) {
	for id := range runners {
		if _, ok := scenario.PresetByID(id); !ok {
			t.Errorf("runner %q has no preset", id)
		}
	}
}

// TestBenchOnlyPresetsHaveRunners backs scenario.BuildPreset's advice for a
// bench-only preset ("run it with `nvmcp-bench <id>`"): that command must
// exist.
func TestBenchOnlyPresetsHaveRunners(t *testing.T) {
	for _, p := range scenario.Presets() {
		if p.ClusterShaped() {
			continue
		}
		if _, ok := runners[p.ID]; !ok {
			t.Errorf("bench-only preset %q has no nvmcp-bench runner", p.ID)
		}
	}
}
