// Package stress turns fleet-scale chaos runs into survivability verdicts
// and a stress-report artifact (byte-stable JSON plus a self-contained HTML
// page, in the internal/slo report style): MTTR and availability as curves
// over fleet size and domain-loss severity, plus a static analysis proving
// — or refuting — that a zone loss can never destroy every copy of a chunk
// under the run's replica placement.
package stress

import (
	"fmt"

	"nvmcp/internal/topo"
)

// AtRiskCap bounds how many victim nodes a domain entry lists in the
// report; the counts are always exact.
const AtRiskCap = 16

// DomainRisk is one failure domain whose loss would make some nodes' data
// unrecoverable from the remote tier.
type DomainRisk struct {
	Domain string `json:"domain"`
	// AtRisk is how many of the domain's nodes would lose all remote
	// copies of their data along with their local NVM.
	AtRisk int `json:"at_risk"`
	// Nodes samples the at-risk node ids (at most AtRiskCap).
	Nodes []int `json:"nodes,omitempty"`
}

// LevelSurvivability aggregates one domain level (rack, zone, provider).
type LevelSurvivability struct {
	Level   string `json:"level"`
	Domains int    `json:"domains"`
	// AtRiskNodes sums the at-risk counts over every domain of the level
	// (domains fail one at a time).
	AtRiskNodes int `json:"at_risk_nodes"`
	// Risks lists only the domains with at-risk nodes.
	Risks []DomainRisk `json:"risks,omitempty"`
	// Survivable is true when no single domain loss at this level can
	// destroy all copies of any chunk.
	Survivable bool `json:"survivable"`
}

// Survivability is the static placement analysis: given where every node's
// remote copies live, which single-domain losses destroy data?
type Survivability struct {
	Placement string `json:"placement"`
	// Honored reports whether the placement's anti-affinity goal was
	// satisfiable on this topology (a single-zone fleet cannot honor zone
	// anti-affinity, for example).
	Honored bool                 `json:"anti_affinity_honored"`
	Levels  []LevelSurvivability `json:"levels"`
	// ZoneSurvivable is the headline: a zone loss never destroys all
	// copies of a chunk.
	ZoneSurvivable bool `json:"zone_survivable"`
}

// Analyze computes survivability from the fleet topology and the remote
// tier's support sets (per compute node, the fabric nodes its remote
// recovery depends on — see cluster.RemoteTier.SupportSets). A node's data is
// unrecoverable under the loss of domain D iff the node is in D and any of
// its support nodes is too: local NVM and every needed remote copy die
// together. Support nodes outside the topology (erasure parity holders,
// the PFS) belong to no domain and never co-fail. An empty support set
// means the node has no remote copies at all, so any domain loss covering
// it is fatal.
func Analyze(t *topo.Topology, sets [][]int, placement string, honored bool) *Survivability {
	if t == nil || sets == nil {
		return nil
	}
	out := &Survivability{Placement: placement, Honored: honored, ZoneSurvivable: true}
	for _, lvl := range []topo.Level{topo.LevelRack, topo.LevelZone, topo.LevelProvider} {
		domains := t.Domains(lvl)
		ls := LevelSurvivability{Level: lvl.String(), Domains: len(domains), Survivable: true}
		for _, d := range domains {
			members := t.NodesIn(lvl, d)
			inDomain := make(map[int]bool, len(members))
			for _, n := range members {
				inDomain[n] = true
			}
			risk := DomainRisk{Domain: d.Label(lvl)}
			for _, n := range members {
				if n >= len(sets) {
					continue
				}
				fatal := len(sets[n]) == 0
				for _, s := range sets[n] {
					if inDomain[s] {
						fatal = true
					}
				}
				if fatal {
					risk.AtRisk++
					if len(risk.Nodes) < AtRiskCap {
						risk.Nodes = append(risk.Nodes, n)
					}
				}
			}
			if risk.AtRisk > 0 {
				ls.AtRiskNodes += risk.AtRisk
				ls.Risks = append(ls.Risks, risk)
				ls.Survivable = false
				if lvl == topo.LevelZone {
					out.ZoneSurvivable = false
				}
			}
		}
		out.Levels = append(out.Levels, ls)
	}
	return out
}

// Verdict renders the headline as a one-line string for tool output.
func (s *Survivability) Verdict() string {
	if s == nil {
		return "survivability: not analyzed (no topology or no remote placement)"
	}
	if s.ZoneSurvivable {
		return fmt.Sprintf("survivability: zone loss survivable under %s placement", s.Placement)
	}
	var zone *LevelSurvivability
	for i := range s.Levels {
		if s.Levels[i].Level == "zone" {
			zone = &s.Levels[i]
		}
	}
	n := 0
	if zone != nil {
		n = zone.AtRiskNodes
	}
	return fmt.Sprintf("survivability: ZONE LOSS DESTROYS DATA under %s placement (%d node(s) at risk)",
		s.Placement, n)
}
