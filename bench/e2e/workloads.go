package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/experiments"
	"nvmcp/internal/lineage"
	"nvmcp/internal/obs"
	"nvmcp/internal/scenario"
)

// workload is one set of benchmark inputs. One run builds and executes every
// scenario that scenarios returns, in order, on the serial engine.
type workload struct {
	name string
	// runs is the timed-run count of a fixed-count invocation (-seconds 0),
	// the same on every commit so medians compare like for like.
	runs int
	// lineage attaches the strict lineage invariant checker to every run.
	lineage bool
	// scenarios builds one run's scenarios for a seed. It is part of the
	// timed set-up.
	scenarios func(seed int64) ([]*scenario.Scenario, error)
}

// workloads are the benchmark's inputs. README.md gives the reason for each:
// together they separate the checkpoint-write path, the fault and telemetry
// path, the 1k-node scale regime and the many-tiny-runs regime, so that an
// optimisation of one layer has a workload that exercises it and one that
// predicts no change.
var workloads = []workload{
	{name: "gtc-paper", runs: 60, scenarios: gtcPaper},
	{name: "faults-observed", runs: 40, lineage: true, scenarios: faultsObserved},
	{name: "fleet-1k-zone", runs: 3, scenarios: fleet1kZone},
	{name: "preset-sweep-tiny", runs: 80, scenarios: presetSweepTiny},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeed reproduces every preset exactly; any other seed shifts the
// fault seeds the scenarios declare by (seed - defaultSeed), and moves
// fleet-1k-zone's outage.
const defaultSeed = 42

// shiftSeeds applies the seed offset to the fault seed, when the scenario
// declares one (no preset the workloads use declares another seed).
func shiftSeeds(sc *scenario.Scenario, seed int64) {
	if sc.FaultSeed != 0 {
		sc.FaultSeed += seed - defaultSeed
	}
}

// gtcPaper is the Fig 9/10 configuration without its SLO and drift specs:
// GTC on 4 nodes x 12 ranks, DCPCP pre-copy, buddy pre-copy every second
// checkpoint, 1 GB/s links, no faults. Its trace has no random input.
func gtcPaper(int64) ([]*scenario.Scenario, error) {
	sc, err := scenario.BuildPreset("slo-paper", scenario.ScalePaper)
	if err != nil {
		return nil, err
	}
	sc.Name, sc.SLO, sc.Drift = "gtc-paper", nil, nil
	return []*scenario.Scenario{sc}, nil
}

// faultsObserved is the paper-scale fault cascade with every bus consumer
// attached: its own SLO objectives, the slo-paper drift limits (both
// non-strict) and, through workload.lineage, the strict lineage checker.
func faultsObserved(seed int64) ([]*scenario.Scenario, error) {
	sc, err := scenario.BuildPreset("slo-faults", scenario.ScalePaper)
	if err != nil {
		return nil, err
	}
	paper, err := scenario.BuildPreset("slo-paper", scenario.ScalePaper)
	if err != nil {
		return nil, err
	}
	sc.Name, sc.Drift = "faults-observed", paper.Drift
	shiftSeeds(sc, seed)
	return []*scenario.Scenario{sc}, nil
}

// fleet1kZone is one cell of the fleet chaos matrix: 1,000 heterogeneous
// nodes, wave startup, a zone outage at 5 s under spread placement. The
// seed shifts the fault seed and picks which of the eight (provider, zone)
// domains fails — seed 42 keeps the matrix's provider 0, zone 1. It leaves
// the generator's seed alone: redrawing the node mix moves the work per run
// by about 1%, half the mallocs bound, while every zone holds 125 nodes.
func fleet1kZone(seed int64) ([]*scenario.Scenario, error) {
	sc := experiments.FleetChaosScenario(1000, experiments.Paper, "spread", "zone")
	f, outage := sc.Fleet, &sc.Failures[0]
	domains := int64(f.Providers * f.ZonesPerProvider)
	base := int64(outage.Provider*f.ZonesPerProvider + outage.Zone)
	d := int(((base+seed-defaultSeed)%domains + domains) % domains)
	outage.Provider, outage.Zone = d/f.ZonesPerProvider, d%f.ZonesPerProvider
	shiftSeeds(sc, seed)
	return []*scenario.Scenario{sc}, sc.Validate()
}

// presetSweepTiny is every cluster-shaped preset except the fleets, at tiny
// scale.
func presetSweepTiny(seed int64) ([]*scenario.Scenario, error) {
	var out []*scenario.Scenario
	for _, p := range scenario.Presets() {
		if !p.ClusterShaped() || strings.HasPrefix(p.ID, "fleet-") {
			continue
		}
		sc, err := scenario.BuildPreset(p.ID, scenario.ScaleTiny)
		if err != nil {
			return nil, err
		}
		shiftSeeds(sc, seed)
		out = append(out, sc)
	}
	return out, nil
}

// newCluster lowers one of the workload's scenarios and builds its cluster.
func (w workload) newCluster(sc *scenario.Scenario) (*cluster.Cluster, error) {
	cfg, err := cluster.FromScenario(sc)
	if err != nil {
		return nil, err
	}
	cfg.Shards = 1
	if w.lineage {
		cfg.Lineage = &lineage.Config{Enabled: true, Strict: true}
	}
	return cluster.New(cfg)
}

// plainTwin is the scenario's reference run: the same machine and workload
// with checkpointing, failures and observers removed. A run that recovered
// correctly ends with the twin's workload checksum.
func plainTwin(sc *scenario.Scenario) *scenario.Scenario {
	t := *sc
	t.NoCheckpoint = true
	t.Failures, t.FaultModel, t.SLO, t.Drift = nil, nil, nil, nil
	t.Remote, t.Bottom = scenario.RemoteSpec{}, scenario.BottomSpec{}
	return &t
}

// twinChecksums runs the plain twin of each of the workload's scenarios and
// returns their workload checksums, in scenario order.
func twinChecksums(w workload, seed int64) ([]uint64, error) {
	scs, err := w.scenarios(seed)
	if err != nil {
		return nil, err
	}
	sums := make([]uint64, len(scs))
	for i, sc := range scs {
		cfg, err := cluster.FromScenario(plainTwin(sc))
		if err != nil {
			return nil, fmt.Errorf("%s: plain twin: %w", sc.Name, err)
		}
		cfg.Shards = 1
		res, _, err := cluster.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: plain twin: %w", sc.Name, err)
		}
		sums[i] = res.WorkloadChecksum
	}
	return sums, nil
}

// sample is one run's raw measurements.
type sample struct {
	// ref is the median of the reference batches taken on either side of
	// the run (0 when none were), in seconds.
	ref              float64
	setup, wall, cpu time.Duration
	mallocs          uint64
	allocBytes       uint64
	liveBytes        uint64
	counts           workCounts
	// digest fingerprints the run's simulated outputs (every Result).
	digest uint64
	// problem names the first correctness check the run failed ("" = none).
	problem string
}

// runOnce executes one run of w from a freshly collected heap: set-up is
// scenario build → FromScenario → cluster.New, wall and cpu cover Execute
// alone, and allocations cover both. twins are the plain twins' checksums.
// Unless traced, every finished cluster stays reachable until the live heap
// is read after a second collection; a traced run skips that collection,
// which marks the whole live heap and would show in its profile.
func runOnce(w workload, seed int64, twins []uint64, traced bool) sample {
	var s sample
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	start := time.Now()
	scs, err := w.scenarios(seed)
	s.setup += time.Since(start)
	if err != nil {
		s.problem = fmt.Sprintf("build scenarios: %v", err)
		return s
	}
	if len(scs) != len(twins) {
		s.problem = fmt.Sprintf("%d scenarios, %d plain twins", len(scs), len(twins))
		return s
	}
	clusters := make([]*cluster.Cluster, 0, len(scs))
	results := make([]cluster.Result, 0, len(scs))
	for i, sc := range scs {
		start := time.Now()
		c, err := w.newCluster(sc)
		s.setup += time.Since(start)
		if err != nil {
			s.problem = fmt.Sprintf("%s: %v", sc.Name, err)
			return s
		}
		cpu0 := cpuTime()
		start = time.Now()
		res, err := c.Execute()
		s.wall += time.Since(start)
		s.cpu += cpuTime() - cpu0
		clusters = append(clusters, c)
		results = append(results, res)
		if s.problem == "" {
			s.problem = w.check(sc.Name, res, err, twins[i])
		}
	}
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.counts.gcCycles = int64(after.NumGC - before.NumGC)
	if !traced {
		runtime.GC()
		runtime.ReadMemStats(&live)
		if live.HeapAlloc > before.HeapAlloc {
			s.liveBytes = live.HeapAlloc - before.HeapAlloc
		}
	}
	for i, c := range clusters {
		s.counts.add(c, results[i])
	}
	runtime.KeepAlive(clusters)
	s.digest = resultDigest(results)
	return s
}

// check returns the first correctness check one scenario's run failed, or
// "" when it passed them all.
func (w workload) check(name string, res cluster.Result, err error, twin uint64) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: execute: %v", name, err)
	case res.WorkloadChecksum != twin:
		return fmt.Sprintf("%s: workload checksum %016x, plain twin %016x", name, res.WorkloadChecksum, twin)
	case w.lineage && res.LineageViolations != 0:
		return fmt.Sprintf("%s: %d lineage violations", name, res.LineageViolations)
	}
	return ""
}

// resultDigest fingerprints simulated outputs only: Result carries no engine
// event counts, so two correct runs of one workload always agree.
func resultDigest(results []cluster.Result) uint64 {
	b, err := json.Marshal(results)
	if err != nil {
		panic(err) // Result is plain data; marshalling cannot fail
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// workCounts are a run's deterministic work counts, read from the finished
// clusters' public surfaces and summed over the run's scenarios.
type workCounts struct {
	events, busEvents, gcCycles             int64
	staged, precopyCopies                   int64
	ckptBlock                               time.Duration
	precopyBytes, ckptBytes                 int64
	precopied, redirtied                    int64
	ships, chunkCommits, retries, failovers int64
	ckptFabricBytes                         float64
	restores, lost, pfsObjects              int64
}

func (w *workCounts) add(c *cluster.Cluster, res cluster.Result) {
	reg := c.Obs.Registry()
	w.events += int64(c.EventsFired())
	w.busEvents += int64(c.Obs.EventCount(""))
	w.staged += reg.Counter("staged_chunks", nil).Get()
	w.precopyCopies += reg.Counter("precopy_copies", nil).Get()
	w.ckptBlock += res.CkptTimePerRank
	w.precopyBytes += reg.Counter("precopy_bytes", nil).Get()
	w.ckptBytes += reg.Counter("ckpt_bytes", nil).Get()
	w.precopied += reg.Counter("chunks_precopied", nil).Get()
	w.redirtied += reg.Counter("redirtied_chunks", nil).Get()
	w.ships += reg.Counter("helper_ships", nil).Get()
	w.chunkCommits += int64(c.Obs.EventCount(obs.EvRemoteChunkCommit))
	w.retries += res.ShipRetries
	w.failovers += res.BuddyFailovers
	w.ckptFabricBytes += c.CkptFabricBytes()
	w.restores += res.RecoveryLocal + res.RecoveryRemote + res.RecoveryBottom
	w.lost += res.RecoveryLost
	w.pfsObjects += int64(res.BottomObjects)
}

// workCountNames are the per-layer work-count metrics, in report order.
var workCountNames = []string{
	"sim.events", "obs.bus_events", "gc.cycles",
	"core.chunks_staged", "core.ckpt_block_ms",
	"precopy.copies", "precopy.hit_rate", "precopy.redirty_rate",
	"remote.chunks_shipped", "remote.commit_per_ship", "remote.ship_retries", "remote.failovers",
	"interconnect.ckpt_gb", "recovery.restores", "recovery.lost", "pfs.objects",
}

// metrics renders the counts under workCountNames.
func (w workCounts) metrics() map[string]float64 {
	return map[string]float64{
		"sim.events":             float64(w.events),
		"obs.bus_events":         float64(w.busEvents),
		"gc.cycles":              float64(w.gcCycles),
		"core.chunks_staged":     float64(w.staged),
		"core.ckpt_block_ms":     float64(w.ckptBlock) / float64(time.Millisecond),
		"precopy.copies":         float64(w.precopyCopies),
		"precopy.hit_rate":       ratio(w.precopyBytes, w.precopyBytes+w.ckptBytes),
		"precopy.redirty_rate":   ratio(w.redirtied, w.precopied),
		"remote.chunks_shipped":  float64(w.ships),
		"remote.commit_per_ship": ratio(w.chunkCommits, w.ships),
		"remote.ship_retries":    float64(w.retries),
		"remote.failovers":       float64(w.failovers),
		"interconnect.ckpt_gb":   w.ckptFabricBytes / 1e9,
		"recovery.restores":      float64(w.restores),
		"recovery.lost":          float64(w.lost),
		"pfs.objects":            float64(w.pfsObjects),
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
