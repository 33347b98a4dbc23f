package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"nvmcp/internal/drift"
	"nvmcp/internal/lineage"
	"nvmcp/internal/obs"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
)

// shardCfg is a buddy-replicated four-node config eligible for sharding.
func shardCfg(shards int) Config {
	cfg := smallCfg()
	cfg.Nodes = 4
	cfg.CoresPerNode = 2
	cfg.Iterations = 4
	cfg.Local = "dcpcp"
	cfg.Remote = "buddy-precopy"
	cfg.RemoteEvery = 2
	cfg.LinkBW = 1e9
	cfg.Shards = shards
	return cfg
}

// runArtifacts executes cfg and serializes everything the determinism
// contract covers: the full RunReport, the merged event stream, and the
// lineage/SLO summaries when those consumers are attached.
func runArtifacts(t *testing.T, cfg Config) []byte {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Obs.BuildReport("shard-test", cfg, res)
	if c.Lineage != nil {
		rep.Lineage = c.Lineage.Summary()
	}
	if c.SLO != nil {
		rep.SLO = c.SLO.Summary()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	if err := c.Obs.WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// atGOMAXPROCS runs fn under each requested GOMAXPROCS, restoring the
// original setting afterwards.
func atGOMAXPROCS(t *testing.T, procs []int, fn func(procs int) []byte) [][]byte {
	t.Helper()
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	out := make([][]byte, len(procs))
	for i, p := range procs {
		runtime.GOMAXPROCS(p)
		out[i] = fn(p)
	}
	return out
}

// TestShardDeterminismAcrossGOMAXPROCS is the sharded engine's core
// contract: at a fixed shard count, the RunReport and the merged event
// stream are byte-identical no matter how many host cores execute the
// shards.
func TestShardDeterminismAcrossGOMAXPROCS(t *testing.T) {
	arts := atGOMAXPROCS(t, []int{1, 2, 8}, func(int) []byte {
		return runArtifacts(t, shardCfg(2))
	})
	for i := 1; i < len(arts); i++ {
		if !bytes.Equal(arts[0], arts[i]) {
			t.Fatalf("sharded artifacts differ between GOMAXPROCS runs 0 and %d (%d vs %d bytes)",
				i, len(arts[0]), len(arts[i]))
		}
	}
}

// driftShardCfg widens the buddy fleet to eight nodes (four shard groups)
// and attaches the drift observatory with every quantity under a loose
// limit, so the whole estimator/limit path runs on both engines.
func driftShardCfg(shards int) Config {
	cfg := shardCfg(shards)
	cfg.Nodes = 8
	cfg.Drift = &drift.Config{Enabled: true, Spec: drift.Spec{
		Limits: []drift.Limit{
			{Quantity: drift.QtyCkptTime, MaxRelErr: 1},
			{Quantity: drift.QtyEfficiency, MaxRelErr: 1},
			{Quantity: drift.QtyPrecopyTp, MaxRelErr: 1},
			{Quantity: drift.QtyWindowBytes, MaxRelErr: 1},
		},
	}}
	return cfg
}

// driftArtifacts executes cfg and serializes the full drift report — the
// windows with every estimator value, phase shifts, violations, summary.
func driftArtifacts(t *testing.T, cfg Config) []byte {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if c.Drift == nil {
		t.Fatal("drift observatory not attached")
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, "drift", drift.BuildReport(c.Drift, report.Meta{Tool: "shard-test"})); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "violations=%d\n", res.DriftViolations)
	return buf.Bytes()
}

// TestShardDeterminismDriftReport holds the observatory to the partitioned
// engine's determinism contract: at a fixed shard count — serial tap or
// four-shard replay over the merged stream — the drift report is
// byte-identical no matter how many host cores execute the run.
func TestShardDeterminismDriftReport(t *testing.T) {
	for _, shards := range []int{1, 4} {
		arts := atGOMAXPROCS(t, []int{1, 2, 8}, func(int) []byte {
			return driftArtifacts(t, driftShardCfg(shards))
		})
		for i := 1; i < len(arts); i++ {
			if !bytes.Equal(arts[0], arts[i]) {
				t.Fatalf("shards=%d: drift reports differ between GOMAXPROCS runs 0 and %d (%d vs %d bytes)",
					shards, i, len(arts[0]), len(arts[i]))
			}
		}
	}
}

// TestShardDeterminismFaultsFallback drives the serial-fallback path with
// the faults preset (failure injection blocks sharding) plus the lineage
// tracer attached, across GOMAXPROCS: the fallback must be taken, warned
// about exactly once, and its full artifact set — report, event stream,
// lineage summary, SLO summary — must stay byte-identical.
func TestShardDeterminismFaultsFallback(t *testing.T) {
	build := func() Config {
		p, ok := scenario.PresetByID("faults")
		if !ok || p.Build == nil {
			t.Fatal("faults preset missing")
		}
		cfg, err := FromScenario(p.Build(scenario.ScaleQuick))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = 8
		cfg.Lineage = &lineage.Config{Enabled: true}
		return cfg
	}
	arts := atGOMAXPROCS(t, []int{1, 2, 8}, func(int) []byte {
		return runArtifacts(t, build())
	})
	for i := 1; i < len(arts); i++ {
		if !bytes.Equal(arts[0], arts[i]) {
			t.Fatalf("fallback artifacts differ between GOMAXPROCS runs 0 and %d", i)
		}
	}
	// The fallback must be visible on the bus.
	c, err := New(build())
	if err != nil {
		t.Fatal(err)
	}
	if c.sharded != nil {
		t.Fatal("faults preset must not shard")
	}
	warned := false
	for _, ev := range c.Obs.Events() {
		if ev.Type == obs.EvEngineWarn && ev.Attrs.Str("code") == "shard-fallback" {
			warned = true
		}
	}
	if !warned {
		t.Fatal("serial fallback left no shard-fallback warning on the bus")
	}
}

// TestShardedRunMatchesSerialInvariants checks the structural figures a
// partitioned run must share with its serial twin: same rank count, same
// checkpoint cadence, same per-rank iteration count, and a helper per node.
func TestShardedRunMatchesSerialInvariants(t *testing.T) {
	serialCfg := shardCfg(1)
	serial, cSerial, err := Run(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	shardedCfg := shardCfg(2)
	c, err := New(shardedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.sharded == nil {
		t.Fatal("config did not shard")
	}
	if got := len(c.sharded.subs); got != 2 {
		t.Fatalf("shards = %d, want 2", got)
	}
	sharded, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Ranks != serial.Ranks {
		t.Fatalf("ranks: sharded %d vs serial %d", sharded.Ranks, serial.Ranks)
	}
	if sharded.LocalCkpts != serial.LocalCkpts {
		t.Fatalf("local ckpts: sharded %d vs serial %d", sharded.LocalCkpts, serial.LocalCkpts)
	}
	if sharded.RemoteCkpts != serial.RemoteCkpts {
		t.Fatalf("remote ckpts: sharded %d vs serial %d", sharded.RemoteCkpts, serial.RemoteCkpts)
	}
	if len(sharded.HelperUtil) != len(serial.HelperUtil) {
		t.Fatalf("helpers: sharded %d vs serial %d", len(sharded.HelperUtil), len(serial.HelperUtil))
	}
	wantIters := serialCfg.Iterations * serial.Ranks
	if got := c.Obs.EventCount(obs.EvIteration); got != wantIters {
		t.Fatalf("merged iteration events = %d, want %d", got, wantIters)
	}
	if got := cSerial.Obs.EventCount(obs.EvIteration); got != wantIters {
		t.Fatalf("serial iteration events = %d, want %d", got, wantIters)
	}
	if c.EventsFired() == 0 {
		t.Fatal("sharded cluster reports zero events fired")
	}
	// Merged streams number nodes globally: nodes 2 and 3 live in shard 1.
	maxNode := 0
	for _, ev := range c.Obs.Events() {
		if ev.Node > maxNode {
			maxNode = ev.Node
		}
	}
	if maxNode != shardedCfg.Nodes-1 {
		t.Fatalf("merged events reach node %d, want %d", maxNode, shardedCfg.Nodes-1)
	}
	if c.CkptFabricBytes() <= 0 {
		t.Fatal("sharded fabric moved no checkpoint bytes")
	}
}

// TestShardCountRespectsTopology pins the shard-count rule: a request is
// capped by the topology, where a buddy ring needs two nodes per shard, and
// an ineligible config runs serial and records one shard.
func TestShardCountRespectsTopology(t *testing.T) {
	shards := func(cfg Config) int {
		t.Helper()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.sharded == nil {
			return c.Cfg.Shards
		}
		return len(c.sharded.subs)
	}
	if got := shards(shardCfg(8)); got != 2 {
		t.Fatalf("buddy over 4 nodes: %d shards, want 2 (ring needs 2 nodes/shard)", got)
	}
	none := shardCfg(8)
	none.Remote = "none"
	if got := shards(none); got != 4 {
		t.Fatalf("remote=none over 4 nodes: %d shards, want 4", got)
	}
	blocked := shardCfg(8)
	blocked.Bottom = "pfs-drain"
	if got := shards(blocked); got != 1 {
		t.Fatalf("bottom-tier config: %d shards, want 1", got)
	}
	// Erasure parity groups span node groups (MinShardNodes 0): the run
	// falls back to the serial engine, records one shard and says why.
	erasure := shardCfg(8)
	erasure.Remote = "erasure"
	c, err := New(erasure)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(); err != nil {
		t.Fatal(err)
	}
	if c.sharded != nil || c.Cfg.Shards != 1 {
		t.Fatalf("erasure run: sharded=%v, recorded %d shards; want serial, 1", c.sharded != nil, c.Cfg.Shards)
	}
	warned := false
	for _, ev := range c.Obs.Events() {
		if ev.Type == obs.EvEngineWarn && ev.Attrs.Str("code") == "shard-fallback" &&
			strings.Contains(ev.Attrs.Str("msg"), `remote policy "erasure" spans node groups`) {
			warned = true
		}
	}
	if !warned {
		t.Fatal("erasure fallback left no spans-node-groups warning on the bus")
	}
	if _, err := New(shardCfg(-1)); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestScenarioShardsLowered checks the scenario spec's shards field reaches
// the cluster config and survives validation.
func TestScenarioShardsLowered(t *testing.T) {
	p, _ := scenario.PresetByID("fig8")
	sc := p.Build(scenario.ScaleQuick)
	sc.Shards = 2
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != 2 {
		t.Fatalf("scenario shards not lowered: got %d", cfg.Shards)
	}
	sc.Shards = -1
	if err := sc.Validate(); err == nil {
		t.Fatal("negative scenario shards validated")
	}
}
