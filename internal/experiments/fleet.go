package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/stress"
)

// ---------------------------------------------------------------------------
// Fleet-scale chaos: MTTR/availability over fleet size × domain-loss
// severity × placement, plus the survivability analysis proving (or
// refuting) that a zone loss never destroys all copies of a chunk.

// FleetResult is the experiment's output: a full stress report, ready for
// stress.WriteJSON / stress.WriteHTML.
type FleetResult struct {
	Report stress.Report `json:"report"`
}

// FleetSizes is the fleet-size axis of the matrix per scale.
func FleetSizes(scale Scale) []int {
	if scale == Paper {
		return []int{1000, 10000}
	}
	return []int{48, 96}
}

// fleetCell is one matrix point before it runs.
type fleetCell struct {
	sc     *scenario.Scenario
	shards int
	// twin marks the serial fault-free run whose checksum the faulted cells
	// of the same fleet size are compared against.
	twin bool
}

// FleetChaosScenario builds one cell's declarative scenario: a generated
// heterogeneous fleet (3:1 mix of 1-core and 2-core shapes, wave startup
// with seeded jitter) with the requested placement and one injected domain
// loss. Exported so gates can replay exactly what the experiment reports on.
func FleetChaosScenario(nodes int, scale Scale, placement, severity string) *scenario.Scenario {
	ckptMB := 4.0
	if scale == Paper {
		// Paper sizes trade per-rank volume for node count: the matrix is
		// about domain survivability and recovery latency, not bandwidth.
		ckptMB = 1
	}
	providers, zones, racks := 1, 2, 2
	if nodes >= 1000 {
		providers, zones, racks = 2, 4, 4
	}
	sc := &scenario.Scenario{
		Name:         fmt.Sprintf("fleet-%d-%s-%s", nodes, severity, placement),
		NVMPerCoreBW: 400e6,
		LinkBW:       1e9,
		Workload:     scenario.WorkloadSpec{App: "cm1", CkptMB: ckptMB, CommMB: -1, IterSecs: 2},
		Iterations:   4,
		Local:        scenario.LocalSpec{Policy: "dcpcp"},
		Remote: scenario.RemoteSpec{
			Policy: "buddy-precopy", AutoRateCap: true, Every: 1, Placement: placement,
		},
		Fleet: &scenario.FleetSpec{
			Nodes: nodes, Seed: 42,
			Providers: providers, ZonesPerProvider: zones, RacksPerZone: racks,
			Templates: []scenario.NodeTemplate{
				{Name: "std", Weight: 3, Cores: 1},
				{Name: "big", Weight: 1, Cores: 2},
			},
			Startup: scenario.StartupSpec{
				Pattern: scenario.StartupWave, SpreadSecs: 1, Waves: 4, JitterSecs: 0.2,
			},
		},
		FaultSeed:  42,
		PayloadCap: 1024,
	}
	// The loss lands at t=5s, after every node's first remote commit
	// (iterations finish by ~3.2s even for the last startup wave).
	switch severity {
	case "rack":
		sc.Failures = []scenario.FailureSpec{{AtSecs: 5, Kind: "rack-outage", Rack: 1}}
	case "zone":
		sc.Failures = []scenario.FailureSpec{{AtSecs: 5, Kind: "zone-outage", Zone: 1}}
	}
	return sc
}

// RunFleet runs the chaos matrix. Per fleet size: a serial fault-free twin
// (the checksum reference), the same cell on the auto-sharded engine (the
// only cell eligible to shard — failure injection pins the rest serial), a
// rack loss and a zone loss under spread placement, and the zone loss again
// under the paper's naive ring placement, which co-locates buddies in-zone
// on the block-contiguous fleet and demonstrably loses chunks.
func RunFleet(scale Scale) FleetResult {
	var allCells []stress.Cell
	var survs []*stress.Survivability
	for _, nodes := range FleetSizes(scale) {
		sharded := FleetChaosScenario(nodes, scale, "spread", "none")
		sharded.Name += "-sharded"
		cellsIn := []fleetCell{
			{sc: FleetChaosScenario(nodes, scale, "spread", "none"), shards: 1, twin: true},
			{sc: sharded, shards: 2},
			{sc: FleetChaosScenario(nodes, scale, "spread", "rack"), shards: 1},
			{sc: FleetChaosScenario(nodes, scale, "spread", "zone"), shards: 1},
			{sc: FleetChaosScenario(nodes, scale, "naive", "zone"), shards: 1},
		}
		cells := make([]stress.Cell, len(cellsIn))
		cellSurv := make([]*stress.Survivability, len(cellsIn))
		// One size at a time: a 10k-node cluster is a big object, and the
		// sweep already runs the size's five cells concurrently.
		sweep(len(cellsIn), func(i int) {
			fc := cellsIn[i]
			cfg, err := cluster.FromScenario(fc.sc)
			if err != nil {
				panic(err)
			}
			cfg.Shards = fc.shards
			res, c := cluster.MustRun(cfg)
			cells[i] = stress.CellFromRun(fc.sc, c, res)
			if fc.shards == 1 && stress.SeverityOf(fc.sc) == "zone" {
				cellSurv[i] = stress.AnalyzeRun(c)
			}
		})
		// The serial fault-free twin's checksum is the must-match reference:
		// a faulted run that recovered everything replays to the same final
		// workload state. (The sharded cell folds per-shard checksums and is
		// not comparable.)
		var twin string
		for i, fc := range cellsIn {
			if fc.twin {
				twin = cells[i].Checksum
			}
		}
		for i, fc := range cellsIn {
			if fc.shards == 1 && !fc.twin && twin != "" {
				ok := cells[i].Checksum == twin
				cells[i].ChecksumOK = &ok
			}
		}
		allCells = append(allCells, cells...)
		// Survivability is placement-static; keep the largest fleet's pair.
		if nodes == FleetSizes(scale)[len(FleetSizes(scale))-1] {
			for _, s := range cellSurv {
				if s != nil {
					survs = append(survs, s)
				}
			}
		}
	}
	meta := report.Meta{Tool: "nvmcp-bench", Scenario: "fleet", Seed: 42}
	return FleetResult{Report: stress.BuildReport(meta, survs, allCells)}
}

// PrintFleet renders the matrix and the survivability verdicts.
func PrintFleet(w io.Writer, r FleetResult) {
	fmt.Fprintln(w, "== Fleet-scale chaos: domain losses vs placement ==")
	tb := &report.Table{Header: []string{
		"cell", "topology", "severity", "placement", "shards",
		"exec", "MTTR", "avail", "lost", "checksum",
	}}
	for _, c := range r.Report.Cells {
		sum := "-"
		if c.ChecksumOK != nil {
			if *c.ChecksumOK {
				sum = "ok"
			} else {
				sum = "DIVERGED"
			}
		}
		tb.AddRow(
			c.Name, c.Topology, c.Severity, c.Placement,
			fmt.Sprintf("%d", c.Shards),
			(time.Duration(c.ExecSecs * float64(time.Second))).Round(time.Millisecond).String(),
			(time.Duration(c.MTTRSecs * float64(time.Second))).Round(time.Millisecond).String(),
			report.FmtPctFixed(c.AvailabilityPct/100),
			fmt.Sprintf("%d", c.RecoveryLost),
			sum,
		)
	}
	tb.Write(w)
	for _, s := range r.Report.Survivability {
		fmt.Fprintln(w, s.Verdict())
	}
}
