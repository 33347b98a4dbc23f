package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nvmcp/internal/topo"
)

// Startup pattern names.
const (
	StartupInstant     = "instant"
	StartupLinear      = "linear"
	StartupExponential = "exponential"
	StartupWave        = "wave"
)

// NodeTemplate is one weighted machine shape a generated fleet draws from.
// Zero-valued resource fields inherit the scenario-level defaults
// (dram_per_node, nvm_per_node, nvm_per_core_bw).
type NodeTemplate struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	Cores  int     `json:"cores"`
	// DRAMMB / NVMMB size the node's memories in MB (0 = scenario default).
	DRAMMB int64 `json:"dram_mb,omitempty"`
	NVMMB  int64 `json:"nvm_mb,omitempty"`
	// NVMPerCoreBW overrides the per-core NVM write bandwidth (bytes/sec).
	NVMPerCoreBW float64 `json:"nvm_per_core_bw,omitempty"`
}

// StartupSpec shapes when the fleet's nodes come up. All patterns spread
// the fleet over SpreadSecs; seeded per-node jitter is added on top.
type StartupSpec struct {
	// Pattern: instant (default), linear, exponential (doubling cohorts),
	// or wave (Waves equal cohorts).
	Pattern string `json:"pattern,omitempty"`
	// SpreadSecs is the ramp length from first to last node.
	SpreadSecs float64 `json:"spread_secs,omitempty"`
	// Waves is the cohort count of the wave pattern (default 4).
	Waves int `json:"waves,omitempty"`
	// JitterSecs adds a seeded uniform [0, JitterSecs) delay per node.
	JitterSecs float64 `json:"jitter_secs,omitempty"`
}

// FleetSpec generates a heterogeneous fleet: Nodes machines drawn from
// weighted shape templates, laid out block-contiguously over a
// (provider, zone, rack) topology, starting up per a seeded pattern.
// Every random draw derives from Seed alone — no global randomness — so a
// generated fleet is a pure function of its spec.
type FleetSpec struct {
	Nodes int `json:"nodes"`
	// Seed fixes the template and jitter draws (0 is a valid fixed seed).
	Seed int64 `json:"seed,omitempty"`

	// Providers / ZonesPerProvider / RacksPerZone shape the failure-domain
	// topology (each defaults to 1).
	Providers        int `json:"providers,omitempty"`
	ZonesPerProvider int `json:"zones_per_provider,omitempty"`
	RacksPerZone     int `json:"racks_per_zone,omitempty"`

	Templates []NodeTemplate `json:"templates"`
	Startup   StartupSpec    `json:"startup,omitempty"`
}

// NodeShape is one generated node's machine shape.
type NodeShape struct {
	Template     string
	Cores        int
	DRAM         int64 // bytes; 0 = scenario default
	NVM          int64 // bytes; 0 = scenario default
	NVMPerCoreBW float64
}

// Fleet is an expanded FleetSpec: concrete per-node shapes, coordinates
// and start times.
type Fleet struct {
	Shapes []NodeShape
	Topo   *topo.Topology
	// Start is each node's startup delay from t=0.
	Start []time.Duration
	// Counts tallies nodes per template name.
	Counts map[string]int
}

func (f *FleetSpec) providers() int { return max1(f.Providers) }
func (f *FleetSpec) zones() int     { return max1(f.ZonesPerProvider) }
func (f *FleetSpec) racks() int     { return max1(f.RacksPerZone) }

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// MaxFleetNodes is the largest fleet a spec may ask for: ten times the
// paper matrix's largest (10,000-node) cell. Lowering a scenario
// (cluster.FromScenario) expands its fleet, one shape, start time and
// coordinate per node, so an unbounded count would let one scenario file or
// control-plane job ask for gigabytes; FleetSpec.Validate checks this bound
// first, and Scenario.Validate runs it before anything is built.
const MaxFleetNodes = 100_000

// Validate checks the fleet spec with actionable errors.
func (f *FleetSpec) Validate() error {
	if f.Nodes > MaxFleetNodes {
		return fmt.Errorf("fleet: nodes must be <= %d (scenario.MaxFleetNodes), got %d", MaxFleetNodes, f.Nodes)
	}
	if f.Nodes < 1 {
		return fmt.Errorf("fleet: nodes must be >= 1, got %d", f.Nodes)
	}
	if f.Providers < 0 || f.ZonesPerProvider < 0 || f.RacksPerZone < 0 {
		return fmt.Errorf("fleet: domain counts must be >= 0 (0 = 1)")
	}
	// The topology numbers racks in int: bound their count, multiplying
	// only while the product stays within the bound, so it cannot overflow.
	racks := 1
	for _, n := range []int{f.providers(), f.zones(), f.racks()} {
		if n > MaxFleetNodes/racks {
			return fmt.Errorf("fleet: providers × zones_per_provider × racks_per_zone must be <= %d (scenario.MaxFleetNodes), got %d × %d × %d",
				MaxFleetNodes, f.providers(), f.zones(), f.racks())
		}
		racks *= n
	}
	if len(f.Templates) == 0 {
		return fmt.Errorf("fleet: at least one node template is required")
	}
	total := 0.0
	for i, tm := range f.Templates {
		if tm.Weight <= 0 {
			return fmt.Errorf("fleet: template %d (%s): weight must be > 0, got %g", i, tm.Name, tm.Weight)
		}
		if tm.Cores < 1 {
			return fmt.Errorf("fleet: template %d (%s): cores must be >= 1, got %d", i, tm.Name, tm.Cores)
		}
		if tm.DRAMMB < 0 || tm.NVMMB < 0 || tm.NVMPerCoreBW < 0 {
			return fmt.Errorf("fleet: template %d (%s): resources must be >= 0", i, tm.Name)
		}
		total += tm.Weight
	}
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		return fmt.Errorf("fleet: template weights sum to %g", total)
	}
	switch f.Startup.Pattern {
	case "", StartupInstant, StartupLinear, StartupExponential, StartupWave:
	default:
		return fmt.Errorf("fleet: unknown startup pattern %q (want %s, %s, %s, or %s)",
			f.Startup.Pattern, StartupInstant, StartupLinear, StartupExponential, StartupWave)
	}
	if f.Startup.SpreadSecs < 0 || f.Startup.JitterSecs < 0 {
		return fmt.Errorf("fleet: startup spread/jitter must be >= 0 (spread %g, jitter %g)",
			f.Startup.SpreadSecs, f.Startup.JitterSecs)
	}
	if f.Startup.Waves < 0 {
		return fmt.Errorf("fleet: startup waves must be >= 0, got %d", f.Startup.Waves)
	}
	return nil
}

// Topology builds the fleet's failure-domain layout without expanding the
// node shapes.
func (f *FleetSpec) Topology() (*topo.Topology, error) {
	return topo.Uniform(f.Nodes, f.providers(), f.zones(), f.racks())
}

// Expand generates the concrete fleet. The only randomness is a single
// rand.Rand seeded from f.Seed, consumed in node order (template draw,
// then jitter draw, per node) — so the expansion is byte-identical across
// runs, platforms and GOMAXPROCS.
func (f *FleetSpec) Expand() (*Fleet, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	tp, err := f.Topology()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(f.Seed))
	total := 0.0
	for _, tm := range f.Templates {
		total += tm.Weight
	}
	fleet := &Fleet{
		Shapes: make([]NodeShape, f.Nodes),
		Topo:   tp,
		Start:  make([]time.Duration, f.Nodes),
		Counts: make(map[string]int),
	}
	spread, jitter := secs(f.Startup.SpreadSecs), secs(f.Startup.JitterSecs)
	waves := f.Startup.Waves
	if waves < 1 {
		waves = 4
	}
	for i := 0; i < f.Nodes; i++ {
		// Weighted template draw.
		pick := rng.Float64() * total
		ti := 0
		for j, tm := range f.Templates {
			if pick < tm.Weight {
				ti = j
				break
			}
			pick -= tm.Weight
			ti = j
		}
		tm := f.Templates[ti]
		name := tm.Name
		if name == "" {
			name = fmt.Sprintf("template-%d", ti)
		}
		fleet.Shapes[i] = NodeShape{
			Template:     name,
			Cores:        tm.Cores,
			DRAM:         tm.DRAMMB * 1 << 20,
			NVM:          tm.NVMMB * 1 << 20,
			NVMPerCoreBW: tm.NVMPerCoreBW,
		}
		fleet.Counts[name]++

		// Startup delay: pattern fraction of the spread, plus jitter.
		frac := 0.0
		switch f.Startup.Pattern {
		case StartupLinear:
			if f.Nodes > 1 {
				frac = float64(i) / float64(f.Nodes-1)
			}
		case StartupExponential:
			// Doubling cohorts: node i joins at log2(i+1)/log2(n) of the
			// spread — half the fleet arrives in the last doubling.
			if f.Nodes > 1 {
				frac = math.Log2(float64(i+1)) / math.Log2(float64(f.Nodes))
			}
		case StartupWave:
			w := i * waves / f.Nodes
			if waves > 1 {
				frac = float64(w) / float64(waves-1)
			}
		}
		delay := time.Duration(frac * float64(spread))
		if jitter > 0 {
			delay += time.Duration(rng.Int63n(int64(jitter)))
		}
		fleet.Start[i] = delay
	}
	return fleet, nil
}
