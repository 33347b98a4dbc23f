package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmcp/internal/scenario"
)

var updateBehaviour = flag.Bool("update", false, "rewrite the testdata golden files of the tests that run")

// behaviourGolden is the checked-in fingerprint of what the simulator does,
// one entry per preset run at tiny scale plus the flag-built CPC run that
// re-dirties pre-copied chunks (no preset does).
const behaviourGolden = "testdata/behaviour.golden.json"

// behaviourRun pins one run: how many engine events fired, the digest of the
// JSONL event stream and of the RunReport bytes, and the final workload
// checksum.
type behaviourRun struct {
	Preset           string `json:"preset"`
	EventsFired      uint64 `json:"events_fired"`
	EventsSHA256     string `json:"events_sha256"`
	ReportSHA256     string `json:"report_sha256"`
	ReportBytes      int    `json:"report_bytes"`
	WorkloadChecksum uint64 `json:"workload_checksum"`
}

// behaviourPresets lists every cluster-shaped preset except the fleet
// family, plus fleet-zone as the one fleet representative.
func behaviourPresets() []string {
	var ids []string
	for _, p := range scenario.Presets() {
		if !p.ClusterShaped() {
			continue
		}
		if strings.HasPrefix(p.ID, "fleet-") && p.ID != "fleet-zone" {
			continue
		}
		ids = append(ids, p.ID)
	}
	return ids
}

// cpcEvery2Cfg is `nvmcp-sim -local cpc -local-every 2` on the small test
// machine: CPC pre-copies a chunk, the next iteration writes it again
// before the checkpoint, and the chunk is re-dirtied.
func cpcEvery2Cfg() Config {
	cfg := smallCfg()
	cfg.Local, cfg.LocalEvery, cfg.Iterations = "cpc", 2, 6
	return cfg
}

func presetCfg(t *testing.T, id string) Config {
	t.Helper()
	sc, err := scenario.BuildPreset(id, scenario.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runBehaviour(t *testing.T, id string, cfg Config) (behaviourRun, Result) {
	t.Helper()
	res, c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	if err := c.Obs.WriteEventsJSONL(&events); err != nil {
		t.Fatal(err)
	}
	report, err := json.Marshal(c.Obs.BuildReport("behaviour-golden", cfg, res))
	if err != nil {
		t.Fatal(err)
	}
	return behaviourRun{
		Preset:           id,
		EventsFired:      c.EventsFired(),
		EventsSHA256:     sha256Hex(events.Bytes()),
		ReportSHA256:     sha256Hex(report),
		ReportBytes:      len(report),
		WorkloadChecksum: res.WorkloadChecksum,
	}, res
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestBehaviourGolden holds the simulated behaviour of every tiny-scale
// preset byte-identical to the checked-in golden. Performance work must pass
// it unchanged; a change that means to alter what is simulated regenerates
// the file with
//
//	go test ./internal/cluster -run TestBehaviourGolden -update
func TestBehaviourGolden(t *testing.T) {
	ids := behaviourPresets()
	got := make([]behaviourRun, len(ids)+1)
	t.Run("presets", func(t *testing.T) {
		for i, id := range ids {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				got[i], _ = runBehaviour(t, id, presetCfg(t, id))
			})
		}
	})
	t.Run("cpc-every-2", func(t *testing.T) {
		var res Result
		got[len(ids)], res = runBehaviour(t, "cpc-every-2", cpcEvery2Cfg())
		if res.ReDirtyRate == 0 {
			t.Error("cpc-every-2 re-dirtied no pre-copied chunk")
		}
	})
	if t.Failed() {
		return
	}
	path := filepath.FromSlash(behaviourGolden)
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
	var want []behaviourRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byPreset := make(map[string]behaviourRun, len(want))
	for _, w := range want {
		byPreset[w.Preset] = w
	}
	for _, g := range got {
		w, ok := byPreset[g.Preset]
		if !ok {
			t.Errorf("preset %s has no golden entry (re-run with -update if it is new)", g.Preset)
			continue
		}
		if g != w {
			t.Errorf("preset %s drifted from the golden\n got: %+v\nwant: %+v", g.Preset, g, w)
		}
		delete(byPreset, g.Preset)
	}
	for id := range byPreset {
		t.Errorf("golden lists preset %s, which no longer runs", id)
	}
}
