package policy_test

import (
	"strings"
	"testing"

	"nvmcp/internal/policy"
)

func TestParseBuiltinNames(t *testing.T) {
	want := map[policy.Kind][]string{
		policy.KindLocal:  {"none", "cpc", "dcpc", "dcpcp"},
		policy.KindRemote: {"none", "buddy-burst", "buddy-precopy", "erasure"},
		policy.KindBottom: {"none", "pfs-drain"},
	}
	for kind, names := range want {
		for _, name := range names {
			e, err := policy.Parse(kind, name)
			if err != nil {
				t.Fatalf("Parse(%s, %q): %v", kind, name, err)
			}
			if e.Name != name || e.Kind != kind {
				t.Fatalf("Parse(%s, %q) = entry {%s, %s}", kind, name, e.Kind, e.Name)
			}
			if e.Description == "" {
				t.Errorf("%s policy %q has no description", kind, name)
			}
		}
	}
}

func TestParseEmptyMeansNone(t *testing.T) {
	for _, kind := range []policy.Kind{policy.KindLocal, policy.KindRemote, policy.KindBottom} {
		e, err := policy.Parse(kind, "")
		if err != nil {
			t.Fatalf("Parse(%s, \"\"): %v", kind, err)
		}
		if e.Name != "none" {
			t.Fatalf("Parse(%s, \"\") = %q, want none", kind, e.Name)
		}
	}
}

func TestParseUnknownListsValidNames(t *testing.T) {
	_, err := policy.Parse(policy.KindLocal, "bogus")
	if err == nil {
		t.Fatal("Parse accepted an unknown policy")
	}
	msg := err.Error()
	for _, want := range []string{`unknown local policy "bogus"`, "valid:", "dcpcp"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	// Names from other kinds must not leak into the suggestion.
	if strings.Contains(msg, "buddy-precopy") {
		t.Errorf("error %q lists remote policies for a local lookup", msg)
	}
}

func TestNamesRegistrationOrder(t *testing.T) {
	// Names lists each kind's table, exactly, in row order.
	want := map[policy.Kind]string{
		policy.KindLocal:  "none cpc dcpc dcpcp",
		policy.KindRemote: "none buddy-burst buddy-precopy erasure",
		policy.KindBottom: "none pfs-drain",
	}
	for kind, names := range want {
		if got := strings.Join(policy.Names(kind), " "); got != names {
			t.Fatalf("Names(%s) = %q, want %q", kind, got, names)
		}
	}
}
