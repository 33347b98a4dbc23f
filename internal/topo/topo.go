// Package topo models the physical layout of a fleet: every compute node
// carries a (provider, zone, rack) coordinate, and correlated failures —
// rack, zone or provider outages — take down whole coordinate prefixes at
// once. The package is deliberately tiny and dependency-free so that the
// fault injector, the cluster runtime and the placement policies can all
// share one notion of "failure domain" without import cycles.
//
// Coordinates are assigned block-contiguously: consecutive node ids fill a
// rack before spilling into the next, racks fill a zone, zones fill a
// provider. That mirrors how real fleets are cabled (and numbered), and it
// is exactly the layout under which the paper's naive ring-buddy placement
// (buddy = n+1) puts a node and its replica in the same rack — the failure
// mode topology-aware placement exists to fix.
package topo

import (
	"fmt"
	"sort"
)

// Level selects the granularity of a failure domain.
type Level int

const (
	LevelRack Level = iota
	LevelZone
	LevelProvider
)

func (l Level) String() string {
	switch l {
	case LevelRack:
		return "rack"
	case LevelZone:
		return "zone"
	case LevelProvider:
		return "provider"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Coord is a node's position in the fleet. Finer fields are meaningless at
// coarser levels: a zone-level domain key has Rack zeroed.
type Coord struct {
	Provider int
	Zone     int
	Rack     int
}

// Key projects the coordinate onto a domain level, zeroing finer fields so
// the result can be compared or used as a map key.
func (c Coord) Key(l Level) Coord {
	switch l {
	case LevelProvider:
		return Coord{Provider: c.Provider}
	case LevelZone:
		return Coord{Provider: c.Provider, Zone: c.Zone}
	default:
		return c
	}
}

// Label renders the coordinate at a level, e.g. "p0/z1/r2".
func (c Coord) Label(l Level) string {
	switch l {
	case LevelProvider:
		return fmt.Sprintf("p%d", c.Provider)
	case LevelZone:
		return fmt.Sprintf("p%d/z%d", c.Provider, c.Zone)
	default:
		return fmt.Sprintf("p%d/z%d/r%d", c.Provider, c.Zone, c.Rack)
	}
}

// less orders coordinates lexicographically (provider, zone, rack).
func (c Coord) less(o Coord) bool {
	if c.Provider != o.Provider {
		return c.Provider < o.Provider
	}
	if c.Zone != o.Zone {
		return c.Zone < o.Zone
	}
	return c.Rack < o.Rack
}

// Topology maps every compute node to its coordinate. Nodes beyond the
// topology (erasure parity holders, the PFS) belong to no failure domain —
// they model independently-provisioned services that a rack or zone loss
// does not touch.
type Topology struct {
	coords []Coord
}

// New builds a topology from explicit per-node coordinates.
func New(coords []Coord) *Topology {
	return &Topology{coords: append([]Coord(nil), coords...)}
}

// Uniform lays out n nodes block-contiguously over providers × zonesPer
// zones × racksPer racks. Rack populations differ by at most one node.
func Uniform(n, providers, zonesPer, racksPer int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: need at least 1 node, got %d", n)
	}
	if providers < 1 || zonesPer < 1 || racksPer < 1 {
		return nil, fmt.Errorf("topo: domain counts must be >= 1 (providers=%d zones_per_provider=%d racks_per_zone=%d)",
			providers, zonesPer, racksPer)
	}
	racks := providers * zonesPer * racksPer
	coords := make([]Coord, n)
	for i := range coords {
		// Deal node i into global rack i*racks/n: contiguous blocks whose
		// sizes differ by at most one, covering every rack when n >= racks.
		gr := i * racks / n
		if n < racks {
			gr = i // fewer nodes than racks: one node per rack, front-filled
		}
		coords[i] = Coord{
			Provider: gr / (zonesPer * racksPer),
			Zone:     (gr / racksPer) % zonesPer,
			Rack:     gr % racksPer,
		}
	}
	return New(coords), nil
}

// Nodes returns the number of nodes covered by the topology.
func (t *Topology) Nodes() int { return len(t.coords) }

// Coord returns node n's coordinate. Nodes outside the topology report a
// zero coordinate and Contains(n) == false.
func (t *Topology) Coord(n int) Coord {
	if !t.Contains(n) {
		return Coord{}
	}
	return t.coords[n]
}

// Contains reports whether node n has a coordinate (is failure-domain
// addressable). Extra fabric nodes — parity holders, the PFS — are not.
func (t *Topology) Contains(n int) bool { return n >= 0 && n < len(t.coords) }

// NodesIn returns the ascending node ids inside the domain key at level l.
func (t *Topology) NodesIn(l Level, key Coord) []int {
	key = key.Key(l)
	var out []int
	for n, c := range t.coords {
		if c.Key(l) == key {
			out = append(out, n)
		}
	}
	return out
}

// Has reports whether at least one node lives in the domain key at level l.
func (t *Topology) Has(l Level, key Coord) bool {
	key = key.Key(l)
	for _, c := range t.coords {
		if c.Key(l) == key {
			return true
		}
	}
	return false
}

// SameDomain reports whether nodes a and b share the level-l domain. Nodes
// outside the topology share no domain with anyone.
func (t *Topology) SameDomain(l Level, a, b int) bool {
	if !t.Contains(a) || !t.Contains(b) {
		return false
	}
	return t.coords[a].Key(l) == t.coords[b].Key(l)
}

// Domains returns the distinct level-l domain keys, sorted.
func (t *Topology) Domains(l Level) []Coord {
	seen := make(map[Coord]bool)
	var out []Coord
	for _, c := range t.coords {
		k := c.Key(l)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// SpreadOrder returns a permutation of the nodes that interleaves zones:
// position i and position i+1 are in different zones whenever the fleet has
// more than one zone. A replica ring built over this order therefore places
// every node's successor outside its own zone — the anti-affinity order the
// placement policies ring over. Ties are broken by node id, so the order is
// deterministic for a given topology.
func (t *Topology) SpreadOrder() []int {
	zones := t.Domains(LevelZone)
	byZone := make(map[Coord][]int, len(zones))
	for n, c := range t.coords {
		k := c.Key(LevelZone)
		byZone[k] = append(byZone[k], n)
	}
	out := make([]int, 0, len(t.coords))
	for round := 0; len(out) < len(t.coords); round++ {
		for _, z := range zones {
			if members := byZone[z]; round < len(members) {
				out = append(out, members[round])
			}
		}
	}
	return out
}

// Slice returns the sub-topology covering nodes [lo, hi), renumbered from
// zero — the shape the sharded engine needs for a contiguous node span.
func (t *Topology) Slice(lo, hi int) *Topology {
	return New(t.coords[lo:hi])
}

// Summary renders the domain shape, e.g. "2 providers / 4 zones / 16 racks".
func (t *Topology) Summary() string {
	return fmt.Sprintf("%dp/%dz/%dr",
		len(t.Domains(LevelProvider)), len(t.Domains(LevelZone)), len(t.Domains(LevelRack)))
}
