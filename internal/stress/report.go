package stress

import (
	"math"
	"sort"

	"nvmcp/internal/report"
)

// SchemaVersion identifies the stress-report JSON layout. Bump on
// incompatible change.
const SchemaVersion = 1

// Cell is one run of the stress matrix: a fleet size × failure severity ×
// placement point with its measured recovery behaviour.
type Cell struct {
	Name       string `json:"name"`
	FleetNodes int    `json:"fleet_nodes"`
	Ranks      int    `json:"ranks,omitempty"`
	// Topology is the domain shape, e.g. "1p/4z/16r".
	Topology string `json:"topology,omitempty"`
	// Severity names the injected domain loss: none, node, rack, zone,
	// provider, or storm.
	Severity  string `json:"severity"`
	Placement string `json:"placement,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Shards    int    `json:"shards,omitempty"`

	ExecSecs        float64 `json:"exec_secs"`
	MTTRSecs        float64 `json:"mttr_secs"`
	DegradedSecs    float64 `json:"degraded_secs"`
	AvailabilityPct float64 `json:"availability_pct"`

	RecoveryLocal  int64 `json:"recovery_local"`
	RecoveryRemote int64 `json:"recovery_remote"`
	RecoveryBottom int64 `json:"recovery_bottom"`
	RecoveryLost   int64 `json:"recovery_lost"`

	// Checksum is the run's final workload checksum; ChecksumOK reports
	// whether it matched the fault-free twin (nil when not compared).
	Checksum   string `json:"checksum,omitempty"`
	ChecksumOK *bool  `json:"checksum_ok,omitempty"`
}

// Report is the stable JSON artifact a stress run (or sweep) emits.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	report.Meta
	// Survivability is the static placement analysis of the (last) run's
	// topology; sweeps that mix placements carry one entry per placement.
	Survivability []*Survivability `json:"survivability,omitempty"`
	Cells         []Cell           `json:"cells"`
}

// BuildReport assembles the artifact, sorting cells into the canonical
// (fleet size, severity, placement, name) order so the output is stable
// regardless of run order.
func BuildReport(meta report.Meta, survivability []*Survivability, cells []Cell) Report {
	sorted := append([]Cell(nil), cells...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.FleetNodes != b.FleetNodes {
			return a.FleetNodes < b.FleetNodes
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Placement != b.Placement {
			return a.Placement < b.Placement
		}
		return a.Name < b.Name
	})
	if sorted == nil {
		sorted = []Cell{}
	}
	return Report{
		SchemaVersion: SchemaVersion,
		Meta:          meta,
		Survivability: survivability,
		Cells:         sorted,
	}
}

// Round6 trims a float for the artifact: six decimals is beyond measurement
// precision and keeps the JSON tidy and stable.
func Round6(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}
