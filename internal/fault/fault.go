// Package fault is the deterministic, scenario-driven fault injector. It
// perturbs three surfaces of the simulated machine — the PCM device
// (bit-flips and torn writes on committed chunk payloads), the fabric
// (transient link drops and bandwidth degradation), and processes (soft
// crash, hard node loss, loss of the buddy holding a node's remote copies)
// — all scheduled in virtual time and driven by seeded randomness, so a
// faulted run replays identically.
//
// Beyond point faults, the package models *correlated* failures over the
// fleet's (provider, zone, rack) topology: rack, zone and provider outages
// fail every node of a domain atomically on virtual time, and link-flap
// storms cascade across neighbouring racks with seeded propagation jitter.
// These are the events buddy and erasure placement must be measured
// against — an i.i.d. node death never takes a replica down with its
// primary; a zone outage does.
//
// The package knows nothing about the cluster: callers hand the injector a
// set of Surfaces (closures onto the kernel, fabric, and process layers)
// and a list of Events, either written explicitly in a scenario or drawn
// from a stochastic MTBF Model.
package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"nvmcp/internal/sim"
	"nvmcp/internal/topo"
)

// Kind names one failure class in the taxonomy.
type Kind string

const (
	// Soft kills every rank process; NVM contents survive, so recovery
	// restores from the local level.
	Soft Kind = "soft"
	// Hard kills every rank process and wipes the failed node's NVM;
	// the node's chunks must come back from the remote or bottom tier.
	Hard Kind = "hard"
	// NVMCorrupt silently damages committed chunk payloads on the target
	// node (bit-flips, or torn writes that lose the payload tail). The
	// fault is latent: it surfaces as ErrChecksum at the next restore.
	NVMCorrupt Kind = "nvm-corrupt"
	// LinkFlap takes the target node's fabric links down (or degrades them
	// to a fraction of their bandwidth) for a bounded duration. In-flight
	// transfers stall or slow; the remote helper retries around it.
	LinkFlap Kind = "link-flap"
	// BuddyLoss hard-fails the node that holds the target node's remote
	// checkpoint copies — the worst case for the remote level, forcing
	// recovery of any locally damaged chunk down to the bottom tier.
	BuddyLoss Kind = "buddy-loss"

	// RackOutage hard-fails every node in one rack atomically: the
	// (Provider, Zone, Rack) coordinate names the domain. NVM on every
	// victim is lost (set Soft for a power-cycle that spares it).
	RackOutage Kind = "rack-outage"
	// ZoneOutage hard-fails every node in one (Provider, Zone) domain.
	ZoneOutage Kind = "zone-outage"
	// ProviderOutage hard-fails every node of one provider.
	ProviderOutage Kind = "provider-outage"
	// LinkStorm is a cascading link-flap: the origin node's rack flaps at
	// At, then the storm propagates to racks at increasing ring distance,
	// one wave per WaveDelay, with seeded per-node jitter.
	LinkStorm Kind = "link-storm"
)

// Kinds lists every valid kind, in taxonomy order.
func Kinds() []Kind {
	return []Kind{Soft, Hard, NVMCorrupt, LinkFlap, BuddyLoss,
		RackOutage, ZoneOutage, ProviderOutage, LinkStorm}
}

// ParseKind maps a scenario string to a Kind. The empty string is Soft, the
// scenario file's default; an Event itself must name its kind.
func ParseKind(s string) (Kind, error) {
	if s == "" {
		return Soft, nil
	}
	if err := Kind(s).check(); err != nil {
		return "", err
	}
	return Kind(s), nil
}

// check reports an error unless k is one of Kinds.
func (k Kind) check() error {
	if slices.Contains(Kinds(), k) {
		return nil
	}
	return fmt.Errorf("fault: unknown kind %q (want one of %v)", k, Kinds())
}

// Process reports whether the kind kills rank processes (and therefore
// triggers a restart), as opposed to a latent or fabric-only perturbation.
func (k Kind) Process() bool {
	return k == Soft || k == Hard || k == BuddyLoss || k.Correlated()
}

// Correlated reports whether the kind targets a whole failure domain
// rather than a single node.
func (k Kind) Correlated() bool {
	return k == RackOutage || k == ZoneOutage || k == ProviderOutage
}

// DomainLevel returns the topology level a correlated kind fails, and
// whether the kind is correlated at all.
func (k Kind) DomainLevel() (topo.Level, bool) {
	switch k {
	case RackOutage:
		return topo.LevelRack, true
	case ZoneOutage:
		return topo.LevelZone, true
	case ProviderOutage:
		return topo.LevelProvider, true
	}
	return 0, false
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual injection time.
	At time.Duration
	// Node is the fault's target. For BuddyLoss it names the node whose
	// remote copies are lost (the injector resolves the holder); for
	// LinkStorm it names the origin node whose rack flaps first. Domain
	// outages leave it zero and address the domain by coordinate instead.
	Node int
	// Kind selects the failure class.
	Kind Kind

	// Chunks bounds how many committed chunks an NVMCorrupt fault damages
	// (0 means 1).
	Chunks int
	// Torn makes NVMCorrupt tear payloads (zero the tail half, as a write
	// interrupted by power loss would) instead of flipping a single bit.
	Torn bool

	// Duration is a LinkFlap's (or each storm flap's) outage length.
	Duration time.Duration
	// Factor is a LinkFlap's residual bandwidth fraction: 0 takes the links
	// fully down, 0.1 leaves a 10% trickle.
	Factor float64

	// Provider/Zone/Rack address the failure domain of a correlated kind.
	// RackOutage reads all three, ZoneOutage Provider+Zone, ProviderOutage
	// only Provider. Point kinds ignore them.
	Provider int
	Zone     int
	Rack     int
	// Soft makes a domain outage spare the victims' NVM (a coordinated
	// power-cycle rather than destruction); default outages wipe it.
	Soft bool

	// Waves is how many propagation rounds a LinkStorm runs beyond the
	// origin rack (0 means the storm stays in one rack).
	Waves int
	// WaveDelay is the virtual time between storm waves (default 500ms).
	WaveDelay time.Duration
}

// Domain returns the coordinate a correlated event targets.
func (e Event) Domain() topo.Coord {
	return topo.Coord{Provider: e.Provider, Zone: e.Zone, Rack: e.Rack}
}

// Victims resolves the event's victim set over a topology: the nodes of
// the targeted domain, ascending. Point kinds return just the node.
func (e Event) Victims(t *topo.Topology) []int {
	if lvl, ok := e.Kind.DomainLevel(); ok {
		if t == nil {
			return nil
		}
		return t.NodesIn(lvl, e.Domain())
	}
	return []int{e.Node}
}

// Label renders the event as a compact cause string for lineage records,
// e.g. "nvm-corrupt@10.5s/node1" or "zone-outage@20s/p0/z1" — which
// injection pushed a chunk off its happy path.
func (e Event) Label() string {
	if lvl, ok := e.Kind.DomainLevel(); ok {
		return fmt.Sprintf("%s@%s/%s", e.Kind, e.At, e.Domain().Label(lvl))
	}
	return fmt.Sprintf("%s@%s/node%d", e.Kind, e.At, e.Node)
}

// Validate checks the event's shape against nodes, the machine size, and —
// for correlated kinds and storms — the fleet topology. t may be nil for
// point kinds; domain-targeted kinds require it.
func (e Event) Validate(nodes int, t *topo.Topology) error {
	if err := e.Kind.check(); err != nil {
		return err
	}
	if e.At <= 0 {
		return fmt.Errorf("fault: event time %v not positive", e.At)
	}
	if e.Chunks < 0 {
		return fmt.Errorf("fault: negative chunk count %d", e.Chunks)
	}
	if e.Factor < 0 || e.Factor >= 1 {
		return fmt.Errorf("fault: link factor %v outside [0,1)", e.Factor)
	}
	if e.Waves < 0 {
		return fmt.Errorf("fault: negative wave count %d", e.Waves)
	}
	if e.WaveDelay < 0 {
		return fmt.Errorf("fault: negative wave delay %v", e.WaveDelay)
	}
	if lvl, ok := e.Kind.DomainLevel(); ok {
		if t == nil {
			return fmt.Errorf("fault: %s needs a fleet topology (no provider/zone/rack coordinates assigned)", e.Kind)
		}
		if e.Node != 0 {
			return fmt.Errorf("fault: %s targets a domain, not a node (drop node %d)", e.Kind, e.Node)
		}
		if e.Provider < 0 || e.Zone < 0 || e.Rack < 0 {
			return fmt.Errorf("fault: negative domain coordinate %+v", e.Domain())
		}
		if !t.Has(lvl, e.Domain()) {
			return fmt.Errorf("fault: %s targets empty domain %s", e.Kind, e.Domain().Label(lvl))
		}
		return nil
	}
	if e.Node < 0 || e.Node >= nodes {
		return fmt.Errorf("fault: node %d outside cluster (nodes 0..%d)", e.Node, nodes-1)
	}
	switch e.Kind {
	case LinkFlap:
		if e.Duration <= 0 {
			return fmt.Errorf("fault: link-flap needs a positive duration")
		}
	case LinkStorm:
		if e.Duration <= 0 {
			return fmt.Errorf("fault: link-storm needs a positive per-flap duration")
		}
		if t == nil {
			return fmt.Errorf("fault: link-storm needs a fleet topology to propagate over")
		}
		if !t.Contains(e.Node) {
			return fmt.Errorf("fault: storm origin %d outside topology (%d nodes)", e.Node, t.Nodes())
		}
	}
	return nil
}

// DefaultWaveDelay is the storm wave spacing when an event leaves it zero.
const DefaultWaveDelay = 500 * time.Millisecond

// ExpandStorm unfolds a LinkStorm into concrete per-node LinkFlap events:
// wave 0 flaps the origin node's rack at ev.At; wave k flaps the racks at
// ring distance k (both directions over the global rack order, so storms
// cross zone boundaries like real routing meltdowns) at ev.At plus k wave
// delays, each node jittered by a seeded uniform draw in [0, WaveDelay/2).
// The expansion is a pure function of (ev, t, seed), so a storm replays
// identically at any GOMAXPROCS.
func ExpandStorm(ev Event, t *topo.Topology, seed int64) []Event {
	if t == nil || !t.Contains(ev.Node) {
		return nil
	}
	delay := ev.WaveDelay
	if delay <= 0 {
		delay = DefaultWaveDelay
	}
	racks := t.Domains(topo.LevelRack)
	origin := -1
	originKey := t.Coord(ev.Node).Key(topo.LevelRack)
	for i, r := range racks {
		if r == originKey {
			origin = i
		}
	}
	if origin < 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ int64(ev.At) ^ int64(ev.Node)<<17))
	var out []Event
	for wave := 0; wave <= ev.Waves; wave++ {
		hit := map[int]bool{}
		for _, d := range []int{origin - wave, origin + wave} {
			if d >= 0 && d < len(racks) && !hit[d] {
				hit[d] = true
				base := ev.At + time.Duration(wave)*delay
				for _, n := range t.NodesIn(topo.LevelRack, racks[d]) {
					jitter := time.Duration(rng.Int63n(int64(delay)/2 + 1))
					out = append(out, Event{
						At:       base + jitter,
						Node:     n,
						Kind:     LinkFlap,
						Duration: ev.Duration,
						Factor:   ev.Factor,
					})
				}
			}
		}
	}
	return out
}

// Model draws a stochastic fault schedule from exponential interarrival
// distributions — the MTBF-driven mode of Section III. Soft and hard
// failures are sampled independently and assign nodes round-robin,
// mirroring the restart experiment's alternating-node idiom; correlated
// classes (rack/zone outages) walk the topology's domains round-robin the
// same way, so every event the model emits passes Event.Validate. The
// merged schedule is sorted by time.
type Model struct {
	// MTBFSoft / MTBFHard are the mean times between failures of each
	// class; zero disables that class.
	MTBFSoft time.Duration
	MTBFHard time.Duration
	// MTBFRack / MTBFZone are the mean times between correlated domain
	// outages; they require a topology and are ignored without one.
	MTBFRack time.Duration
	MTBFZone time.Duration
	// Horizon bounds the schedule: no fault is drawn at or past it.
	Horizon time.Duration
	// Seed fixes the random stream (0 is a valid, fixed seed).
	Seed int64
}

// Validate checks the model against the machine's fleet topology (nil for
// a fixed-shape machine, which has no rack or zone to fail).
func (m Model) Validate(t *topo.Topology) error {
	if m.Horizon <= 0 {
		return fmt.Errorf("fault: model horizon %v not positive", m.Horizon)
	}
	if m.MTBFSoft < 0 || m.MTBFHard < 0 || m.MTBFRack < 0 || m.MTBFZone < 0 {
		return fmt.Errorf("fault: negative model MTBF (soft %v, hard %v, rack %v, zone %v)",
			m.MTBFSoft, m.MTBFHard, m.MTBFRack, m.MTBFZone)
	}
	if m.MTBFSoft == 0 && m.MTBFHard == 0 && m.MTBFRack == 0 && m.MTBFZone == 0 {
		return fmt.Errorf("fault: model needs at least one positive MTBF")
	}
	if (m.MTBFRack > 0 || m.MTBFZone > 0) && t == nil {
		return fmt.Errorf("fault: model rack/zone MTBFs need a fleet topology")
	}
	return nil
}

// Schedule expands the model into a concrete, reproducible event list over
// a machine of nodes nodes; tp assigns the failure-domain coordinates the
// correlated classes draw from (nil draws none).
func (m Model) Schedule(nodes int, tp *topo.Topology) []Event {
	var events []Event
	draw := func(mtbf time.Duration, seedSalt int64, mk func(i int, t time.Duration) (Event, bool)) {
		if mtbf <= 0 {
			return
		}
		rng := rand.New(rand.NewSource(m.Seed + seedSalt))
		t := time.Duration(0)
		for i := 0; ; i++ {
			t += time.Duration(rng.ExpFloat64() * float64(mtbf))
			if t >= m.Horizon {
				return
			}
			if ev, ok := mk(i, t); ok {
				events = append(events, ev)
			}
		}
	}
	point := func(kind Kind) func(int, time.Duration) (Event, bool) {
		return func(i int, t time.Duration) (Event, bool) {
			node := 0
			if nodes > 0 {
				node = i % nodes
			}
			return Event{At: t, Node: node, Kind: kind}, true
		}
	}
	domain := func(kind Kind, lvl topo.Level) func(int, time.Duration) (Event, bool) {
		if tp == nil {
			return func(int, time.Duration) (Event, bool) { return Event{}, false }
		}
		domains := tp.Domains(lvl)
		return func(i int, t time.Duration) (Event, bool) {
			if len(domains) == 0 {
				return Event{}, false
			}
			d := domains[i%len(domains)]
			return Event{At: t, Kind: kind, Provider: d.Provider, Zone: d.Zone, Rack: d.Rack}, true
		}
	}
	draw(m.MTBFSoft, 0, point(Soft))
	draw(m.MTBFHard, 0x9e3779b9, point(Hard))
	draw(m.MTBFRack, 0x7f4a7c15, domain(RackOutage, topo.LevelRack))
	draw(m.MTBFZone, 0x2545f491, domain(ZoneOutage, topo.LevelZone))
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// Surfaces are the hooks the injector perturbs. Each receives the full
// event so kind-specific fields reach the implementation.
type Surfaces struct {
	// Kill handles process faults (Soft, Hard, BuddyLoss, and the domain
	// outages): it kills rank processes and arranges the restart. For
	// correlated kinds the receiver resolves the victim set from the
	// event's domain coordinate.
	Kill func(ev Event)
	// CorruptNVM damages committed chunk payloads on ev.Node using rng for
	// placement, returning how many chunks were hit.
	CorruptNVM func(rng *rand.Rand, ev Event) int
	// FlapLink degrades ev.Node's fabric links for ev.Duration.
	FlapLink func(ev Event)
}

// Injector schedules fault events against a simulation environment and
// dispatches them to the surfaces. One seeded rng, consumed in schedule
// order, keeps corruption placement reproducible across runs; LinkStorm
// events are expanded into their flap cascade at scheduling time with the
// same seed, so the storm's shape is part of the deterministic schedule.
type Injector struct {
	env  *sim.Env
	rng  *rand.Rand
	seed int64
	topo *topo.Topology
	s    Surfaces
}

// NewInjector builds an injector over env with the given placement seed.
// t may be nil when the scenario has no fleet topology; storms then
// degrade to a single flap at their origin.
func NewInjector(env *sim.Env, seed int64, t *topo.Topology, s Surfaces) *Injector {
	return &Injector{env: env, rng: rand.New(rand.NewSource(seed)), seed: seed, topo: t, s: s}
}

// ScheduleAll arms every event at its virtual time. Events fire in At
// order; ties resolve in slice order (the scheduler is FIFO per instant).
// LinkStorms are pre-expanded into their flap cascades here.
func (in *Injector) ScheduleAll(events []Event) {
	for _, ev := range events {
		if ev.Kind == LinkStorm && in.topo != nil {
			for _, flap := range ExpandStorm(ev, in.topo, in.seed) {
				in.env.At(flap.At, func() { in.dispatch(flap) })
			}
			continue
		}
		in.env.At(ev.At, func() { in.dispatch(ev) })
	}
}

func (in *Injector) dispatch(ev Event) {
	switch ev.Kind {
	case NVMCorrupt:
		if in.s.CorruptNVM != nil {
			in.s.CorruptNVM(in.rng, ev)
		}
	case LinkFlap, LinkStorm:
		if in.s.FlapLink != nil {
			in.s.FlapLink(ev)
		}
	default: // Soft, Hard, BuddyLoss, domain outages
		if in.s.Kill != nil {
			in.s.Kill(ev)
		}
	}
}
