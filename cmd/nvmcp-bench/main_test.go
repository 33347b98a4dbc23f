package main

import (
	"regexp"
	"strings"
	"testing"

	"nvmcp/internal/experiments"
)

// TestUsageNamesEveryRunner keeps -help in step with the experiment table:
// each experiment id must head a line of the experiment list.
func TestUsageNamesEveryRunner(t *testing.T) {
	var sb strings.Builder
	writeUsage(&sb)
	out := sb.String()
	for _, e := range experiments.All {
		if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(e.ID) + `\s`).MatchString(out) {
			t.Errorf("usage does not list experiment %q:\n%s", e.ID, out)
		}
	}
}
