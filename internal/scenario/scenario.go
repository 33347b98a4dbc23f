// Package scenario is the declarative configuration surface of the
// simulator: one serializable spec describing machine shape, workload,
// checkpoint policies (local, remote, bottom), failure schedule, SLOs and
// drift limits; where a run writes its artifacts is the runner's business
// (nvmcp-sim's -events-out and kin). Scenarios round-trip through JSON,
// check their own rules with actionable errors, come as named presets for
// every experiment in DESIGN.md §4, and expand into cartesian sweeps. The
// cluster lowers a scenario into a run (cluster.FromScenario) and checks the
// run's rules there, once: policy names against internal/policy's name
// tables, failures against the fleet it built.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nvmcp/internal/drift"
	"nvmcp/internal/fault"
	"nvmcp/internal/mem"
	"nvmcp/internal/slo"
	"nvmcp/internal/workload"
)

// Scale names a run size: tiny (smoke tests), quick (CI-friendly) or paper
// (the full 48-rank configuration of Section VI).
type Scale string

const (
	// ScaleTiny runs 2 nodes x 2 cores with 2 short iterations.
	ScaleTiny Scale = "tiny"
	// ScaleQuick runs 2 nodes x 4 cores with 3 iterations.
	ScaleQuick Scale = "quick"
	// ScalePaper runs 4 nodes x 12 cores (48 MPI processes) x 4 iterations.
	ScalePaper Scale = "paper"
)

// ParseScale resolves a scale name.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case ScaleTiny, ScaleQuick, ScalePaper:
		return Scale(s), nil
	}
	return "", fmt.Errorf("unknown scale %q (valid: tiny, quick, paper)", s)
}

// Dims returns the machine and run shape for a scale.
func (s Scale) Dims() (nodes, cores, iters int) {
	switch s {
	case ScalePaper:
		return 4, 12, 4
	case ScaleTiny:
		return 2, 2, 2
	default:
		return 2, 4, 3
	}
}

// CkptMB is the per-rank checkpoint volume a scale pins the workload to
// (0 = the application's natural size).
func (s Scale) CkptMB() float64 {
	switch s {
	case ScalePaper:
		return 0
	case ScaleTiny:
		return 24
	default:
		return 100
	}
}

// IterSecs is the compute-iteration duration a scale pins (0 = natural).
func (s Scale) IterSecs() float64 {
	switch s {
	case ScalePaper:
		return 0
	case ScaleTiny:
		return 2
	default:
		return 10
	}
}

// WorkloadSpec selects and re-shapes an application profile.
type WorkloadSpec struct {
	// App names a workload profile: gtc, lammps-rhodo, cm1, amr.
	App string `json:"app"`
	// CkptMB scales the per-rank checkpoint volume to this many MB
	// (0 = the profile's natural size).
	CkptMB float64 `json:"ckpt_mb,omitempty"`
	// ScaleComm scales communication volume by the same factor as CkptMB,
	// preserving the compute/communication shape at reduced size.
	ScaleComm bool `json:"scale_comm,omitempty"`
	// CommMB overrides per-iteration communication volume in MB
	// (-1 disables communication, 0 keeps the profile's).
	CommMB float64 `json:"comm_mb,omitempty"`
	// IterSecs overrides the compute-iteration duration (0 keeps the
	// profile's).
	IterSecs float64 `json:"iter_secs,omitempty"`
	// PhaseShiftIter, when > 0, changes the workload's write behaviour from
	// that (0-based) iteration on: every non-init chunk gains
	// PhaseShiftMods extra late-interval writes per iteration, jumping the
	// re-dirty rate — a declarative workload phase change for the drift
	// observatory's phase detector.
	PhaseShiftIter int64 `json:"phase_shift_iter,omitempty"`
	// PhaseShiftMods is the number of extra late writes per chunk per
	// iteration after the shift (default 2 when PhaseShiftIter is set).
	PhaseShiftMods int `json:"phase_shift_mods,omitempty"`
}

// LocalSpec configures the local checkpoint level.
type LocalSpec struct {
	// Policy names the local pre-copy policy: none, cpc, dcpc, dcpcp.
	Policy string `json:"policy,omitempty"`
	// RateCap throttles background pre-copy in bytes/sec (0 = uncapped).
	RateCap float64 `json:"rate_cap,omitempty"`
	// Every takes a coordinated local checkpoint every N-th iteration.
	Every int `json:"every,omitempty"`
	// ForceFull disables dirty tracking (the full-checkpoint baseline).
	ForceFull bool `json:"force_full,omitempty"`
}

// RemoteSpec configures the remote checkpoint level.
type RemoteSpec struct {
	// Policy names the remote tier: none, buddy-burst, buddy-precopy,
	// erasure.
	Policy string `json:"policy,omitempty"`
	// RateCap throttles incremental shipping in bytes/sec.
	RateCap float64 `json:"rate_cap,omitempty"`
	// AutoRateCap derives the paper's pre-copy shipping cap
	// (2·D·cores / remote interval) from the workload; overrides RateCap.
	AutoRateCap bool `json:"auto_rate_cap,omitempty"`
	// DelaySecs holds shipping until this long into each remote interval.
	DelaySecs float64 `json:"delay_secs,omitempty"`
	// Every triggers a remote checkpoint every N-th local one.
	Every int `json:"every,omitempty"`
	// Group hints the redundancy group size (0 = tier default).
	Group int `json:"group,omitempty"`
	// Placement selects replica placement: spread (default, zone
	// anti-affinity over the fleet topology) or naive (the paper's n+1
	// ring / consecutive groups).
	Placement string `json:"placement,omitempty"`
	// StaggerMax, when positive, gates remote drains behind an admission
	// gate admitting at most this many node drains at once — the control
	// plane's cap on peak interconnect usage (Fig 9/10).
	StaggerMax int `json:"stagger_max,omitempty"`
	// StaggerSlotSecs spaces consecutive drain grants this far apart
	// (usable alone or with StaggerMax).
	StaggerSlotSecs float64 `json:"stagger_slot_secs,omitempty"`
	// Replan re-homes replica placement away from the victims of hard or
	// correlated failures during recovery (buddy tiers only).
	Replan bool `json:"replan_on_failure,omitempty"`
}

// BottomSpec configures the bottom storage level.
type BottomSpec struct {
	// Policy names the bottom tier: none, pfs-drain.
	Policy string `json:"policy,omitempty"`
	// AggregateBW / StripeBW size the PFS (0 = package defaults).
	AggregateBW float64 `json:"aggregate_bw,omitempty"`
	StripeBW    float64 `json:"stripe_bw,omitempty"`
}

// FailureSpec schedules one injected failure.
type FailureSpec struct {
	AtSecs float64 `json:"at_secs"`
	// Node is the failing node (for buddy-loss: the node whose remote
	// copies are lost — the fault strikes whichever node holds them).
	Node int `json:"node"`
	// Kind selects the failure class: soft, hard, nvm-corrupt, link-flap,
	// buddy-loss. Empty is soft.
	Kind string `json:"kind,omitempty"`
	// Chunks bounds how many committed chunks an nvm-corrupt fault damages
	// (0 means 1); Torn switches from bit-flips to torn writes.
	Chunks int  `json:"chunks,omitempty"`
	Torn   bool `json:"torn,omitempty"`
	// DurationSecs and Factor shape a link-flap: outage length and residual
	// bandwidth fraction (0 = fully down, must be < 1).
	DurationSecs float64 `json:"duration_secs,omitempty"`
	Factor       float64 `json:"factor,omitempty"`
	// Provider/Zone/Rack address the failure domain of a correlated kind
	// (rack-outage, zone-outage, provider-outage). Requires a fleet
	// topology.
	Provider int `json:"provider,omitempty"`
	Zone     int `json:"zone,omitempty"`
	Rack     int `json:"rack,omitempty"`
	// Soft makes a domain outage spare the victims' NVM (coordinated
	// power-cycle instead of destruction).
	Soft bool `json:"soft,omitempty"`
	// Waves and WaveDelaySecs shape a link-storm's seeded cascade: how many
	// rack-to-rack propagation rounds, and the virtual time between them.
	Waves         int     `json:"waves,omitempty"`
	WaveDelaySecs float64 `json:"wave_delay_secs,omitempty"`
}

// Event lowers the spec to a fault.Event. FromScenario and live injection
// both lower through it, so they refuse the same specs: an empty kind is
// soft.
func (f FailureSpec) Event() (fault.Event, error) {
	kind, err := fault.ParseKind(f.Kind)
	if err != nil {
		return fault.Event{}, err
	}
	return fault.Event{
		At:        secs(f.AtSecs),
		Node:      f.Node,
		Kind:      kind,
		Chunks:    f.Chunks,
		Torn:      f.Torn,
		Duration:  secs(f.DurationSecs),
		Factor:    f.Factor,
		Provider:  f.Provider,
		Zone:      f.Zone,
		Rack:      f.Rack,
		Soft:      f.Soft,
		Waves:     f.Waves,
		WaveDelay: secs(f.WaveDelaySecs),
	}, nil
}

// FaultModelSpec adds stochastic failures on top of the explicit schedule:
// exponential inter-arrival per class, deterministic for a given seed.
type FaultModelSpec struct {
	MTBFSoftSecs float64 `json:"mtbf_soft_secs,omitempty"`
	MTBFHardSecs float64 `json:"mtbf_hard_secs,omitempty"`
	// MTBFRackSecs / MTBFZoneSecs draw correlated rack-outage and
	// zone-outage events over the fleet topology (fleet scenarios only).
	MTBFRackSecs float64 `json:"mtbf_rack_secs,omitempty"`
	MTBFZoneSecs float64 `json:"mtbf_zone_secs,omitempty"`
	HorizonSecs  float64 `json:"horizon_secs"`
	Seed         int64   `json:"seed,omitempty"`
}

// Model lowers the spec to the fault package's MTBF model, which holds the
// model's rules (Validate) and draws its schedule.
func (m FaultModelSpec) Model() fault.Model {
	return fault.Model{
		MTBFSoft: secs(m.MTBFSoftSecs),
		MTBFHard: secs(m.MTBFHardSecs),
		MTBFRack: secs(m.MTBFRackSecs),
		MTBFZone: secs(m.MTBFZoneSecs),
		Horizon:  secs(m.HorizonSecs),
		Seed:     m.Seed,
	}
}

// secs converts a scenario's float seconds to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Scenario is one declarative run description.
type Scenario struct {
	Name string `json:"name,omitempty"`

	Nodes        int     `json:"nodes"`
	CoresPerNode int     `json:"cores_per_node"`
	DRAMPerNode  int64   `json:"dram_per_node,omitempty"`
	NVMPerNode   int64   `json:"nvm_per_node,omitempty"`
	NVMPerCoreBW float64 `json:"nvm_per_core_bw,omitempty"`
	LinkBW       float64 `json:"link_bw,omitempty"`

	// Fleet generates the machine shape instead: a heterogeneous fleet of
	// templated nodes over a failure-domain topology. Mutually exclusive
	// with Nodes/CoresPerNode.
	Fleet *FleetSpec `json:"fleet,omitempty"`

	Workload   WorkloadSpec `json:"workload"`
	Iterations int          `json:"iterations"`

	Local  LocalSpec  `json:"local,omitempty"`
	Remote RemoteSpec `json:"remote,omitempty"`
	Bottom BottomSpec `json:"bottom,omitempty"`

	Failures   []FailureSpec   `json:"failures,omitempty"`
	FaultModel *FaultModelSpec `json:"fault_model,omitempty"`
	// FaultSeed seeds nvm-corrupt victim selection.
	FaultSeed int64 `json:"fault_seed,omitempty"`

	NoCheckpoint  bool `json:"no_checkpoint,omitempty"`
	PayloadCap    int  `json:"payload_cap,omitempty"`
	SingleVersion bool `json:"single_version,omitempty"`

	// Shards pins the run's event-engine shard count (0 and 1 = the serial
	// engine). Requests the topology or configuration cannot honor are
	// capped or fall back.
	Shards int `json:"shards,omitempty"`

	// SLO declares the run's service-level objectives, evaluated online by
	// the flight recorder over fixed virtual-time windows.
	SLO *slo.Spec `json:"slo,omitempty"`

	// Drift declares the run's model-drift thresholds: the observatory
	// re-evaluates the paper's §III model each window with measured inputs
	// and bounds the predicted-vs-measured relative error per quantity.
	Drift *drift.Spec `json:"drift,omitempty"`
}

// Load parses a scenario from JSON, rejecting unknown fields so typos
// surface instead of silently configuring nothing, and checks the
// scenario's own rules (Validate). The run's rules are checked when it is
// lowered (cluster.FromScenario).
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadFile reads a scenario file and checks its own rules, as Load does.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	sc, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Marshal renders the scenario as indented JSON.
func (sc *Scenario) Marshal() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// Validate checks the rules of a scenario that its lowered cluster config
// cannot state or would default away: the machine shape (a fleet, or nodes
// and cores_per_node of at least 1), iterations, the workload, and an
// explicit remote rate cap that auto_rate_cap would replace. Every other
// rule of a run is checked once, on the lowered config, by
// cluster.FromScenario. Validate builds nothing, so it allocates in the size
// of the spec, not of the fleet. Errors are actionable: unknown names list
// the valid alternatives, out-of-range numbers say the range.
func (sc *Scenario) Validate() error {
	if sc.Fleet != nil {
		if sc.Nodes != 0 || sc.CoresPerNode != 0 {
			return fmt.Errorf("scenario %s: fleet generates the machine shape; drop nodes/cores_per_node",
				sc.label())
		}
		if err := sc.Fleet.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.label(), err)
		}
	} else {
		if sc.Nodes < 1 {
			return fmt.Errorf("scenario %s: nodes must be >= 1, got %d", sc.label(), sc.Nodes)
		}
		if sc.CoresPerNode < 1 {
			return fmt.Errorf("scenario %s: cores_per_node must be >= 1, got %d", sc.label(), sc.CoresPerNode)
		}
	}
	if sc.Iterations < 1 {
		return fmt.Errorf("scenario %s: iterations must be >= 1, got %d", sc.label(), sc.Iterations)
	}
	if _, ok := workload.SpecByName(sc.Workload.App); !ok {
		var names []string
		for _, s := range workload.Specs() {
			names = append(names, s.Name)
		}
		names = append(names, "amr")
		return fmt.Errorf("scenario %s: unknown workload %q (valid: %s)",
			sc.label(), sc.Workload.App, strings.Join(names, ", "))
	}
	if sc.Workload.CkptMB < 0 {
		return fmt.Errorf("scenario %s: workload.ckpt_mb must be >= 0, got %g", sc.label(), sc.Workload.CkptMB)
	}
	if sc.Workload.CommMB < -1 {
		return fmt.Errorf("scenario %s: workload.comm_mb must be >= -1 (-1 disables communication), got %g",
			sc.label(), sc.Workload.CommMB)
	}
	if sc.Workload.PhaseShiftIter < 0 || sc.Workload.PhaseShiftMods < 0 {
		return fmt.Errorf("scenario %s: workload phase-shift fields must be >= 0 (iter %d, mods %d)",
			sc.label(), sc.Workload.PhaseShiftIter, sc.Workload.PhaseShiftMods)
	}
	if sc.Remote.RateCap < 0 {
		return fmt.Errorf("scenario %s: remote.rate_cap must be >= 0, got %g", sc.label(), sc.Remote.RateCap)
	}
	return nil
}

func (sc *Scenario) label() string {
	if sc.Name != "" {
		return fmt.Sprintf("%q", sc.Name)
	}
	return "(unnamed)"
}

// AppSpec resolves and re-shapes the workload profile per the spec.
func (sc *Scenario) AppSpec() (workload.AppSpec, error) {
	app, ok := workload.SpecByName(sc.Workload.App)
	if !ok {
		return workload.AppSpec{}, fmt.Errorf("scenario %s: unknown workload %q", sc.label(), sc.Workload.App)
	}
	if sc.Workload.CkptMB > 0 {
		target := int64(sc.Workload.CkptMB * float64(mem.MB))
		factor := float64(target) / float64(app.CheckpointSize())
		app = app.ScaledTo(target)
		if sc.Workload.ScaleComm {
			app.CommPerIter = int64(float64(app.CommPerIter) * factor)
		}
	}
	switch {
	case sc.Workload.CommMB < 0:
		app.CommPerIter = 0
	case sc.Workload.CommMB > 0:
		app.CommPerIter = int64(sc.Workload.CommMB * float64(mem.MB))
	}
	if sc.Workload.IterSecs > 0 {
		app.IterTime = secs(sc.Workload.IterSecs)
	}
	if sc.Workload.PhaseShiftIter > 0 {
		app.ShiftIter = sc.Workload.PhaseShiftIter
		app.ShiftExtraMods = sc.Workload.PhaseShiftMods
		if app.ShiftExtraMods == 0 {
			app.ShiftExtraMods = 2
		}
	}
	return app, nil
}

// The checkpoint intervals an omitted every runs at: a local checkpoint every
// iteration, a remote one every fourth local one. The cluster defaults its
// Config from these too.
const (
	DefaultLocalEvery  = 1
	DefaultRemoteEvery = 4
)

// AutoRemoteRateCap is the paper's remote pre-copy shipping cap: two full
// checkpoint volumes per node (both remote versions) spread over one remote
// checkpoint interval of every iterations — 2·D·cores / (every·iterTime).
func AutoRemoteRateCap(ckptSize int64, ranksPerNode int, iterTime time.Duration, every int) float64 {
	if every < 1 {
		every = 1
	}
	interval := time.Duration(every) * iterTime
	if interval <= 0 {
		return 0
	}
	return 2 * float64(ckptSize) * float64(ranksPerNode) / interval.Seconds()
}

// ResolvedRemoteRateCap returns the scenario's effective remote rate cap,
// deriving it from the (re-shaped) workload when AutoRateCap is set.
func (sc *Scenario) ResolvedRemoteRateCap() (float64, error) {
	if !sc.Remote.AutoRateCap {
		return sc.Remote.RateCap, nil
	}
	app, err := sc.AppSpec()
	if err != nil {
		return 0, err
	}
	cores := sc.CoresPerNode
	if sc.Fleet != nil {
		// Heterogeneous fleet: cap for the largest template so no node's
		// shipping starves.
		for _, tm := range sc.Fleet.Templates {
			if tm.Cores > cores {
				cores = tm.Cores
			}
		}
	}
	local, remote := sc.Local.Every, sc.Remote.Every
	if local == 0 {
		local = DefaultLocalEvery
	}
	if remote == 0 {
		remote = DefaultRemoteEvery
	}
	// Remote checkpoints run every local.every × remote.every iterations.
	return AutoRemoteRateCap(app.CheckpointSize(), cores, app.IterTime, local*remote), nil
}

// Base returns the canonical scenario skeleton for an app at a scale and
// per-core NVM bandwidth — the shared shape of every experiment preset
// (tiny/quick runs re-scale volumes so contention shape survives at speed).
func Base(appName string, scale Scale, bwPerCore float64) *Scenario {
	nodes, cores, iters := scale.Dims()
	return &Scenario{
		Name:         fmt.Sprintf("%s-%s", appName, scale),
		Nodes:        nodes,
		CoresPerNode: cores,
		NVMPerCoreBW: bwPerCore,
		Workload: WorkloadSpec{
			App:       appName,
			CkptMB:    scale.CkptMB(),
			ScaleComm: scale.CkptMB() > 0,
			IterSecs:  scale.IterSecs(),
		},
		Iterations: iters,
		// Large chunk payloads are pointless at cluster scale; timing uses
		// virtual sizes.
		PayloadCap: 2048,
	}
}
