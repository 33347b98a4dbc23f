package stress

import (
	"fmt"

	"nvmcp/internal/cluster"
	"nvmcp/internal/policy"
	"nvmcp/internal/scenario"
)

// SeverityOf names the worst domain-loss class a scenario's fault schedule
// injects: provider > zone > rack > storm > node > none. The name keys the
// report's MTTR/availability curves.
func SeverityOf(sc *scenario.Scenario) string {
	worst := "none"
	rank := map[string]int{"none": 0, "node": 1, "storm": 2, "rack": 3, "zone": 4, "provider": 5}
	bump := func(s string) {
		if rank[s] > rank[worst] {
			worst = s
		}
	}
	for _, f := range sc.Failures {
		switch f.Kind {
		case "provider-outage":
			bump("provider")
		case "zone-outage":
			bump("zone")
		case "rack-outage":
			bump("rack")
		case "link-storm":
			bump("storm")
		default:
			bump("node")
		}
	}
	if m := sc.FaultModel; m != nil {
		if m.MTBFZoneSecs > 0 {
			bump("zone")
		} else if m.MTBFRackSecs > 0 {
			bump("rack")
		} else {
			bump("node")
		}
	}
	return worst
}

// CellFromRun folds one finished cluster run into a report cell. The cell
// name, severity and placement come from the scenario; the measurements from
// the run's Result.
func CellFromRun(sc *scenario.Scenario, c *cluster.Cluster, res cluster.Result) Cell {
	cfg := c.Cfg
	cell := Cell{
		Name:       sc.Name,
		FleetNodes: cfg.Nodes,
		Ranks:      res.Ranks,
		Severity:   SeverityOf(sc),
		Policy:     cfg.Remote,
		Shards:     max(cfg.Shards, 1),

		ExecSecs:     Round6(res.ExecTime.Seconds()),
		MTTRSecs:     Round6(res.MTTR.Seconds()),
		DegradedSecs: Round6(res.DegradedTime.Seconds()),

		RecoveryLocal:  res.RecoveryLocal,
		RecoveryRemote: res.RecoveryRemote,
		RecoveryBottom: res.RecoveryBottom,
		RecoveryLost:   res.RecoveryLost,

		Checksum: fmt.Sprintf("%016x", res.WorkloadChecksum),
	}
	if cfg.Topo != nil {
		cell.Topology = cfg.Topo.Summary()
	}
	if pl, err := policy.ParsePlacement(cfg.Placement); err == nil {
		cell.Placement = pl
	}
	avail := 100.0
	if res.ExecTime > 0 {
		avail = 100 * (1 - res.DegradedTime.Seconds()/res.ExecTime.Seconds())
	}
	cell.AvailabilityPct = Round6(avail)
	return cell
}

// AnalyzeRun derives the static survivability analysis from a finished
// serial run's remote tier (the tier knows where every replica was planned).
// Sharded runs return nil: each shard's tier only sees its own node span, so
// its support sets are not fleet-global — and sharded runs are by
// construction failure-free, so there is nothing to survive.
func AnalyzeRun(c *cluster.Cluster) *Survivability {
	if c == nil || c.Cfg.Topo == nil || c.Cfg.Shards > 1 {
		return nil
	}
	t := c.RemoteTier()
	if t == nil {
		return nil
	}
	return Analyze(c.Cfg.Topo, t.SupportSets(), t.PlacementDesc(), t.PlacementHonored())
}
