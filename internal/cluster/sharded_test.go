package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"nvmcp/internal/drift"
	"nvmcp/internal/lineage"
	"nvmcp/internal/obs"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/slo"
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
// contract covers: the full RunReport, the merged event stream, the
// lineage/SLO summaries and the SLO and drift reports when those consumers
// are attached.
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
	meta := report.Meta{Tool: "shard-test"}
	if c.SLO != nil {
		if err := report.WriteJSON(&buf, "slo", slo.BuildReport(c.SLO, meta)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Drift != nil {
		if err := report.WriteJSON(&buf, "drift", drift.BuildReport(c.Drift, meta)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// shardFallback returns the shard-fallback warning on c's bus, "" if none.
func shardFallback(c *Cluster) string {
	for _, ev := range c.Obs.Events() {
		if ev.Type == obs.EvEngineWarn && ev.Attrs.Str("code") == "shard-fallback" {
			return ev.Attrs.Str("msg")
		}
	}
	return ""
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

// consumerShardCfg attaches every whole-run bus consumer, all strict, to
// the sharded buddy config: lineage, SLO and drift, each with objectives
// or limits the run meets.
func consumerShardCfg(shards int) Config {
	cfg := shardCfg(shards)
	cfg.Lineage = &lineage.Config{Enabled: true, Strict: true}
	cfg.SLO = &slo.Config{Enabled: true, Strict: true, Spec: &slo.Spec{Objectives: []slo.Objective{
		{Name: "no-loss", Series: "recovery_lost", Direction: slo.AtMost, Threshold: 0},
		{Name: "hit", Series: "precopy_hit_rate", Direction: slo.AtLeast, Threshold: 0, Final: true},
	}}}
	cfg.Drift = driftShardCfg(shards).Drift
	cfg.Drift.Strict = true
	return cfg
}

// TestShardDeterminismConsumers holds the bus consumers to the sharded
// engine's contract: with strict lineage, SLO and drift attached the run
// still shards, traces clean, and its artifacts — report, merged stream,
// consumer summaries and reports — are byte-identical at any GOMAXPROCS.
func TestShardDeterminismConsumers(t *testing.T) {
	arts := atGOMAXPROCS(t, []int{1, 2, 8}, func(int) []byte {
		c, err := New(consumerShardCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		if c.sharded == nil {
			t.Fatalf("consumers pinned the run to the serial engine: %q", shardFallback(c))
		}
		if c.Lineage == nil || c.SLO == nil || c.Drift == nil {
			t.Fatal("coordinator lacks a consumer")
		}
		for i, sub := range c.sharded.subs {
			if sub.Lineage != nil || sub.SLO != nil || sub.Drift != nil {
				t.Fatalf("shard %d carries its own consumer", i)
			}
		}
		return runArtifacts(t, consumerShardCfg(2))
	})
	for i := 1; i < len(arts); i++ {
		if !bytes.Equal(arts[0], arts[i]) {
			t.Fatalf("consumer artifacts differ between GOMAXPROCS runs 0 and %d (%d vs %d bytes)",
				i, len(arts[0]), len(arts[i]))
		}
	}
	res, c, err := Run(consumerShardCfg(2))
	if err != nil {
		t.Fatalf("strict consumers failed the sharded run: %v", err)
	}
	if w := shardFallback(c); w != "" {
		t.Fatalf("sharded run fell back: %s", w)
	}
	if res.LineageViolations != 0 {
		t.Fatalf("lineage violations = %d: %v", res.LineageViolations, c.Lineage.Violations())
	}
	if c.Lineage.Summary().Records == 0 || c.SLO.Summary().Windows == 0 || len(c.Drift.Windows()) == 0 {
		t.Fatal("a consumer folded nothing from the merged stream")
	}
}

// TestShardedSLOStrictFails drives a breaching SLO spec through a sharded
// run: the merged stream must breach it, and Execute must return the
// recorder's strict error.
func TestShardedSLOStrictFails(t *testing.T) {
	cfg := shardCfg(2)
	cfg.SLO = &slo.Config{Enabled: true, Strict: true, Spec: &slo.Spec{Objectives: []slo.Objective{
		{Name: "impossible-hit", Series: "precopy_hit_rate", Direction: slo.AtLeast, Threshold: 1.5, Final: true},
	}}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.sharded == nil {
		t.Fatalf("SLO pinned the run to the serial engine: %q", shardFallback(c))
	}
	res, err := c.Execute()
	if err == nil || !strings.Contains(err.Error(), "impossible-hit") {
		t.Fatalf("Execute = %v, want the strict SLO breach", err)
	}
	if res.SLOViolations != 1 {
		t.Fatalf("SLO violations = %d, want 1", res.SLOViolations)
	}
}

// TestShardedHelperEventsUseGlobalNodes holds a partitioned run's helper
// events to the bus's node numbering: every node's helper commits, under
// its own global node, to a buddy named by its global node in the same
// shard group.
func TestShardedHelperEventsUseGlobalNodes(t *testing.T) {
	_, c, err := Run(shardCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.sharded == nil {
		t.Fatal("buddy config did not shard")
	}
	committed := map[int]bool{}
	for _, ev := range c.Obs.Events() {
		switch ev.Type {
		case obs.EvChunkShipped, obs.EvRemoteChunkCommit, obs.EvRemoteCommit:
		default:
			continue
		}
		buddy, ok := ev.Attrs.Int("buddy")
		if !ok {
			t.Fatalf("%s on node %d carries no buddy", ev.Type, ev.Node)
		}
		if b := int(buddy); b == ev.Node || c.sharded.shardOf(b) != c.sharded.shardOf(ev.Node) {
			t.Fatalf("%s on node %d names buddy %d outside its shard group", ev.Type, ev.Node, b)
		}
		if ev.Type == obs.EvRemoteCommit {
			committed[ev.Node] = true
		}
	}
	if len(committed) != 4 {
		t.Fatalf("remote commits on nodes %v, want every node 0-3", committed)
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

// TestShardDeterminismChromeTrace holds the Chrome trace to the same
// contract: each shard's observer carries its own trace tap, so a traced
// run still shards, and the trace (rows concatenated in shard order) is
// byte-identical at GOMAXPROCS 1 and 4, with every row in the lane the
// serial run draws it in. fleet-chaos stays serial at two
// shards, for its failure injection and not for the trace, and its trace is
// as stable.
func TestShardDeterminismChromeTrace(t *testing.T) {
	trace := func(cfg Config) ([]byte, *Cluster) {
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
		return buf.Bytes(), c
	}
	fleetChaos := func() Config {
		sc, err := scenario.BuildPreset("fleet-chaos", scenario.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := FromScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = 2
		return cfg
	}
	for _, tc := range []struct {
		name     string
		cfg      func() Config
		fallback string // "" = must shard
	}{
		{"buddy-precopy", func() Config { return shardCfg(2) }, ""},
		{"fleet-chaos", fleetChaos, "failure injection"},
	} {
		arts := atGOMAXPROCS(t, []int{1, 4}, func(int) []byte {
			b, c := trace(tc.cfg())
			var warn string
			for _, ev := range c.Obs.Events() {
				if ev.Type == obs.EvEngineWarn && ev.Attrs.Str("code") == "shard-fallback" {
					warn = ev.Attrs.Str("msg")
				}
			}
			switch {
			case tc.fallback == "" && (c.sharded == nil || warn != ""):
				t.Fatalf("%s: traced run did not shard (warning %q)", tc.name, warn)
			case tc.fallback != "" && !strings.Contains(warn, tc.fallback):
				t.Fatalf("%s: shard-fallback warning %q, want one naming %s", tc.name, warn, tc.fallback)
			}
			return b
		})
		if !bytes.Equal(arts[0], arts[1]) {
			t.Fatalf("%s: traces differ between GOMAXPROCS 1 and 4 (%d vs %d bytes)",
				tc.name, len(arts[0]), len(arts[1]))
		}
		if tc.fallback == "" {
			// Every row sits in the lane the serial run draws it in; only
			// times may move, by the shards' separate fabrics.
			cfg := tc.cfg()
			cfg.Shards = 1
			serial, _ := trace(cfg)
			if got, want := traceLanes(t, arts[0]), traceLanes(t, serial); got != want {
				t.Fatalf("%s: sharded trace rows by lane differ from the serial run's:\n%s\nwant:\n%s",
					tc.name, got, want)
			}
		}
	}
}

// traceLanes lists a Chrome trace's rows without their times: one
// "name ph pid/tid" line per row, sorted.
func traceLanes(t *testing.T, trace []byte) string {
	t.Helper()
	var doc struct{ TraceEvents []obs.ChromeEvent }
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(doc.TraceEvents))
	for _, r := range doc.TraceEvents {
		lines = append(lines, fmt.Sprintf("%s %s %d/%d", r.Name, r.Phase, r.PID, r.TID))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
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
// the cluster config, and that lowering refuses a negative one.
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
	if _, err := FromScenario(sc); err == nil {
		t.Fatal("negative scenario shards lowered")
	}
}
