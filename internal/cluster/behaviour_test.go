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
// one entry per preset run at tiny scale plus two flag-built runs no preset
// makes: the CPC run that re-dirties pre-copied chunks, and the erasure run
// that recovers a hard failure through parity.
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

// erasureHardCfg is `nvmcp-sim -nodes 4 -cores 2 -ckpt-mb 24 -iter-secs 2
// -iters 4 -remote erasure -remote-every 1`, hard-failing node 1 at 30 s:
// the lost node's chunks come back from parity plus the survivors. With
// failures false it is the fault-free twin.
func erasureHardCfg(t *testing.T, failures bool) Config {
	t.Helper()
	sc := &scenario.Scenario{
		Name:         "erasure-hard",
		Nodes:        4,
		CoresPerNode: 2,
		NVMPerCoreBW: 400e6,
		LinkBW:       250e6,
		Workload:     scenario.WorkloadSpec{App: "gtc", CkptMB: 24, IterSecs: 2},
		Iterations:   4,
		Local:        scenario.LocalSpec{Policy: "dcpcp", Every: 1},
		Remote:       scenario.RemoteSpec{Policy: "erasure", Every: 1, AutoRateCap: true},
		PayloadCap:   2048,
	}
	if failures {
		sc.Failures = []scenario.FailureSpec{{AtSecs: 30, Node: 1, Kind: "hard"}}
	}
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
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
	got := make([]behaviourRun, len(ids)+2)
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
	t.Run("erasure-hard", func(t *testing.T) {
		var res Result
		got[len(ids)+1], res = runBehaviour(t, "erasure-hard", erasureHardCfg(t, true))
		if res.RecoveryRemote == 0 || res.RecoveryLost != 0 {
			t.Errorf("erasure-hard recovered %d chunks through parity and lost %d, want > 0 and 0",
				res.RecoveryRemote, res.RecoveryLost)
		}
		twin, _, err := Run(erasureHardCfg(t, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.WorkloadChecksum != twin.WorkloadChecksum {
			t.Errorf("erasure-hard checksum %016x, fault-free twin %016x",
				res.WorkloadChecksum, twin.WorkloadChecksum)
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
