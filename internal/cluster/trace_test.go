package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nvmcp/internal/scenario"
)

// traceGolden is the checked-in fingerprint of the Chrome trace every
// behaviour-golden preset writes at tiny scale, plus one flag-built run
// whose trace holds quiesce spans.
const traceGolden = "testdata/trace.golden.json"

// traceRun pins one run's Chrome trace by digest and size.
type traceRun struct {
	Run    string `json:"run"`
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// chromeTrace executes cfg with the Chrome trace on and returns its bytes.
func chromeTrace(t *testing.T, cfg Config) []byte {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := c.ChromeTrace()
	if _, err := c.Execute(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// quiesceCLIScenario is what `nvmcp-sim -local dcpcp -local-every 2 -remote
// buddy-precopy` runs: the command's flag defaults with a two-iteration
// checkpoint interval. A pre-copy still in flight at a checkpoint
// iteration's end makes the rank quiesce, so the trace has quiesce spans.
func quiesceCLIScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:         "cli",
		Nodes:        2,
		CoresPerNode: 4,
		NVMPerCoreBW: 400e6,
		LinkBW:       250e6,
		Workload:     scenario.WorkloadSpec{App: "gtc", CkptMB: 120, IterSecs: 10},
		Iterations:   4,
		Local:        scenario.LocalSpec{Policy: "dcpcp", Every: 2},
		Remote:       scenario.RemoteSpec{Policy: "buddy-precopy", AutoRateCap: true, Every: 2},
		Bottom:       scenario.BottomSpec{Policy: "none"},
		PayloadCap:   2048,
	}
}

// TestTraceGolden holds the Chrome trace of every tiny-scale behaviour
// preset, and of one run with quiesce spans, byte-identical to the
// checked-in golden. Regenerate it only when the timeline is meant to
// change:
//
//	go test ./internal/cluster -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	type run struct {
		name string
		sc   func() (*scenario.Scenario, error)
	}
	var runs []run
	for _, id := range behaviourPresets() {
		runs = append(runs, run{id, func() (*scenario.Scenario, error) {
			return scenario.BuildPreset(id, scenario.ScaleTiny)
		}})
	}
	runs = append(runs, run{"cli-dcpcp-local-every-2-buddy-precopy", func() (*scenario.Scenario, error) {
		return quiesceCLIScenario(), nil
	}})
	got := make([]traceRun, len(runs))
	t.Run("runs", func(t *testing.T) {
		for i, r := range runs {
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				sc, err := r.sc()
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := FromScenario(sc)
				if err != nil {
					t.Fatal(err)
				}
				b := chromeTrace(t, cfg)
				got[i] = traceRun{Run: r.name, SHA256: sha256Hex(b), Bytes: len(b)}
			})
		}
	})
	if t.Failed() {
		return
	}
	path := filepath.FromSlash(traceGolden)
	if *updateBehaviour {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want []traceRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byRun := make(map[string]traceRun, len(want))
	for _, w := range want {
		byRun[w.Run] = w
	}
	for _, g := range got {
		w, ok := byRun[g.Run]
		if !ok {
			t.Errorf("run %s has no golden entry (re-run with -update if it is new)", g.Run)
			continue
		}
		if g != w {
			t.Errorf("run %s: trace drifted from the golden\n got: %+v\nwant: %+v", g.Run, g, w)
		}
		delete(byRun, g.Run)
	}
	for name := range byRun {
		t.Errorf("golden lists run %s, which no longer runs", name)
	}
}
