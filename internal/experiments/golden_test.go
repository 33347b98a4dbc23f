package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

var updateQuick = flag.Bool("update", false, "rewrite testdata/quick.golden.json")

const quickGolden = "testdata/quick.golden.json"

// quickResults holds the quick-scale result of every experiment in All but
// fleet, keyed by its nvmcp-bench id. Each is computed once per test binary
// and shared by the shape tests and TestQuickGolden. Fleet is left out: its
// quick chaos matrix alone takes ~22 s under -race, which would double this
// package's test time.
var quickResults = func() map[string]func() any {
	m := make(map[string]func() any, len(All))
	for _, e := range All {
		if e.ID != "fleet" {
			m[e.ID] = sync.OnceValue(func() any { return e.Run(Quick) })
		}
	}
	return m
}()

// quick returns the shared quick-scale result of experiment id.
func quick[T any](id string) T { return quickResults[id]().(T) }

// TestQuickGolden holds every quickResults experiment's quick-scale result
// byte-identical (as JSON, the form `nvmcp-bench -json` prints) to the
// checked-in golden. A change that means to alter a figure regenerates the
// file with
//
//	go test ./internal/experiments -run TestQuickGolden -update
func TestQuickGolden(t *testing.T) {
	ids := make([]string, 0, len(quickResults))
	for id := range quickResults {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	got := make(map[string]json.RawMessage, len(ids))
	for _, id := range ids {
		b, err := json.Marshal(quickResults[id]())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got[id] = b
	}
	path := filepath.FromSlash(quickGolden)
	if *updateQuick {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, id := range ids {
		w, ok := want[id]
		if !ok {
			t.Errorf("experiment %s has no golden entry (re-run with -update if it is new)", id)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, w); err != nil {
			t.Fatalf("%s: golden entry: %v", id, err)
		}
		if !bytes.Equal(got[id], compact.Bytes()) {
			t.Errorf("experiment %s drifted from the golden\n got: %s\nwant: %s", id, got[id], compact.Bytes())
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("golden lists experiment %s, which no longer runs", id)
	}
}
