package policy

import (
	"fmt"

	"nvmcp/internal/topo"
)

// Placement names for a scenario's remote placement.
const (
	// PlacementSpread rings replicas over the topology's zone-interleaved
	// order, so every node's remote copy lands outside its own fault
	// domain. The default whenever a fleet topology exists.
	PlacementSpread = "spread"
	// PlacementNaive is the paper's original layout: buddy = (n+1) mod N,
	// erasure groups over consecutive node ids. Under a block-contiguous
	// fleet that puts a node and its replica in the same rack — kept as an
	// explicit opt-in so the survivability loss is demonstrable.
	PlacementNaive = "naive"
)

// ParsePlacement resolves a scenario placement string; empty means spread.
func ParsePlacement(s string) (string, error) {
	switch s {
	case "":
		return PlacementSpread, nil
	case PlacementSpread, PlacementNaive:
		return s, nil
	}
	return "", fmt.Errorf("policy: unknown placement %q (want %s or %s)", s, PlacementSpread, PlacementNaive)
}

// BuddyPlan computes the buddy ring over nodes compute nodes. Under
// PlacementSpread with a topology it rings over topo.SpreadOrder, so a
// node's buddy sits in a different zone whenever the fleet has more than
// one; honored reports whether that anti-affinity held for every node
// (a single-zone fleet still spreads racks but reports honored=false).
// Naive placement — or no topology — is the paper's (n+1) mod N ring,
// which trivially honors its (empty) goal.
func BuddyPlan(t *topo.Topology, nodes int, placement string) (buddy []int, honored bool) {
	buddy = make([]int, nodes)
	if placement != PlacementSpread || t == nil || nodes < 2 {
		for n := range buddy {
			buddy[n] = (n + 1) % nodes
		}
		return buddy, true
	}
	order := spreadOrderWithin(t, nodes)
	for i, n := range order {
		buddy[n] = order[(i+1)%len(order)]
	}
	honored = true
	for n := 0; n < nodes; n++ {
		if t.SameDomain(topo.LevelZone, n, buddy[n]) {
			honored = false
		}
	}
	return buddy, honored
}

// BuddyReplan recomputes a buddy ring avoiding the given nodes as holders:
// every node (including the avoided ones, which will recover and need a live
// buddy) is assigned the next non-avoided node along the placement order.
// Returns nil when fewer than two candidate holders remain — a ring needs a
// buddy distinct from its source for at least the avoided nodes' sources.
func BuddyReplan(t *topo.Topology, nodes int, placement string, avoid []int) []int {
	order := make([]int, nodes)
	for i := range order {
		order[i] = i
	}
	if placement == PlacementSpread && t != nil {
		order = spreadOrderWithin(t, nodes)
	}
	avoided := make(map[int]bool, len(avoid))
	for _, n := range avoid {
		avoided[n] = true
	}
	holders := 0
	for _, n := range order {
		if !avoided[n] {
			holders++
		}
	}
	if holders < 2 {
		return nil
	}
	pos := make(map[int]int, nodes)
	for i, n := range order {
		pos[n] = i
	}
	buddy := make([]int, nodes)
	for n := 0; n < nodes; n++ {
		j := pos[n]
		for k := 1; k <= len(order); k++ {
			cand := order[(j+k)%len(order)]
			if cand != n && !avoided[cand] {
				buddy[n] = cand
				break
			}
		}
	}
	return buddy
}

// ErasureGroupCount is how many parity groups (and so parity nodes) an
// erasure tier of the given group size builds over nodes compute nodes.
// group <= 0 keeps the legacy single group over everything; a remainder of
// one node is folded into the previous group (a group needs two members).
func ErasureGroupCount(nodes, group int) int {
	if group <= 0 || group >= nodes {
		return 1
	}
	n := nodes / group
	if nodes%group >= 2 {
		n++
	}
	return n
}

// ErasureGroupsPlan deals the compute nodes into parity groups of the given
// size. Under PlacementSpread the groups are consecutive blocks of the
// topology's zone-interleaved order, so a group's members sit in pairwise
// distinct zones whenever the fleet has enough of them — the property that
// makes a zone loss cost at most one member per group, which XOR parity
// survives. honored reports whether that held for every group. Members are
// returned ascending within each group.
func ErasureGroupsPlan(t *topo.Topology, nodes, group int, placement string) (groups [][]int, honored bool, err error) {
	if nodes < 2 {
		return nil, false, fmt.Errorf("erasure: needs at least 2 compute nodes, got %d", nodes)
	}
	if group == 1 {
		return nil, false, fmt.Errorf("erasure: a parity group needs at least two members (got group size 1)")
	}
	order := make([]int, nodes)
	for i := range order {
		order[i] = i
	}
	if placement == PlacementSpread && t != nil {
		order = spreadOrderWithin(t, nodes)
	}
	count := ErasureGroupCount(nodes, group)
	if count == 1 {
		group = nodes
	}
	groups = make([][]int, 0, count)
	for g := 0; g < count; g++ {
		lo := g * group
		hi := lo + group
		if g == count-1 {
			hi = nodes // the last group absorbs the remainder (or lone node)
		}
		groups = append(groups, sortedInts(order[lo:hi]))
	}
	honored = true
	for _, members := range groups {
		seen := map[topo.Coord]bool{}
		for _, m := range members {
			if t == nil {
				continue
			}
			k := t.Coord(m).Key(topo.LevelZone)
			if seen[k] {
				honored = false
			}
			seen[k] = true
		}
	}
	if t == nil || placement != PlacementSpread {
		honored = placement != PlacementSpread // naive asks for nothing; spread without topology cannot be honored
	}
	return groups, honored, nil
}

// spreadOrderWithin is the topology's spread order restricted to the first
// nodes ids (extra fabric nodes are placed by the tier, not the ring).
func spreadOrderWithin(t *topo.Topology, nodes int) []int {
	full := t.SpreadOrder()
	out := make([]int, 0, nodes)
	for _, n := range full {
		if n < nodes {
			out = append(out, n)
		}
	}
	// Topology smaller than the compute set: append the uncovered tail so
	// the ring still spans every node.
	for n := t.Nodes(); n < nodes; n++ {
		out = append(out, n)
	}
	return out
}

func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
