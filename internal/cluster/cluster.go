// Package cluster assembles the full system: nodes with DRAM + NVM and a
// kernel each, an RDMA fabric between them, MPI-rank-like application
// processes running a workload spec, per-rank local checkpoint engines,
// a remote checkpoint tier (buddy replication or erasure parity),
// an optional bottom storage tier (PFS drain), coordinated local checkpoints
// at iteration boundaries, asynchronous remote checkpoints every K-th local
// one, and failure injection with multilevel recovery (local NVM restore for
// soft failures, remote-tier fetch for hard ones).
//
// Policies are named in internal/policy's tables: a local row gives the
// pre-copy scheme the cluster builds each rank's *precopy.Engine with, a
// remote row builds the remote tier, and a bottom row other than none
// attaches a *pfs.FS. This is the harness behind Figures 7, 8, 9 and 10 and
// Table V.
package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/drift"
	"nvmcp/internal/fault"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/lineage"
	"nvmcp/internal/mem"
	"nvmcp/internal/model"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/pfs"
	"nvmcp/internal/policy"
	"nvmcp/internal/precopy"
	"nvmcp/internal/scenario"
	"nvmcp/internal/sim"
	"nvmcp/internal/slo"
	"nvmcp/internal/topo"
	"nvmcp/internal/workload"
)

// NodeShape is one node's machine shape in a heterogeneous (generated)
// fleet. Zero-valued fields fall back to the Config-level defaults.
type NodeShape struct {
	Cores        int
	DRAM         int64
	NVM          int64
	NVMPerCoreBW float64
}

// Config describes one cluster run.
type Config struct {
	Nodes        int
	CoresPerNode int
	DRAMPerNode  int64
	NVMPerNode   int64
	// NVMPerCoreBW, when non-zero, pins the effective NVM write bandwidth
	// per core (the Figures 7/8 x-axis); zero uses the Table I PCM device.
	NVMPerCoreBW float64
	LinkBW       float64

	// Shapes gives each node its own machine shape (heterogeneous fleets);
	// when set its length must equal Nodes, and the Config-level fields
	// above become the defaults for a shape's zero-valued fields.
	Shapes []NodeShape
	// Topo assigns every node a (provider, zone, rack) failure-domain
	// coordinate, enabling correlated fault kinds and topology-aware
	// replica placement. Nil means no domain structure.
	Topo *topo.Topology
	// NodeStart staggers node startup: node n's ranks begin their first
	// iteration NodeStart[n] into the run (generated fleet ramp-up).
	NodeStart []time.Duration
	// Placement selects the remote tier's replica placement ("" or
	// "spread" for zone anti-affinity over Topo, "naive" for the paper's
	// ring/consecutive-groups layout).
	Placement string

	App        workload.AppSpec
	Iterations int

	// Local names the local pre-copy policy ("" or "none", "cpc", "dcpc",
	// "dcpcp" — see policy.Names(policy.KindLocal)).
	Local        string
	LocalRateCap float64
	// LocalEvery takes a coordinated local checkpoint every N-th iteration
	// (default 1): the knob for checkpoint-interval studies — recovery
	// rolls back to the last *checkpointed* iteration.
	LocalEvery int
	// ForceFull disables dirty tracking at checkpoints (the classic
	// full-checkpoint baseline used for 'no pre-copy' comparisons).
	ForceFull bool
	// NoCheckpoint disables checkpointing entirely (the ideal run used as
	// the efficiency denominator).
	NoCheckpoint bool

	// Remote names the remote checkpoint tier ("" or "none", "buddy-burst",
	// "buddy-precopy", "erasure"), triggered every RemoteEvery-th local
	// checkpoint.
	Remote        string
	RemoteRateCap float64
	RemoteDelay   time.Duration
	RemoteEvery   int
	// RemoteGroup hints the tier's redundancy group size (0 = tier default).
	RemoteGroup int

	// Bottom names the bottom storage tier ("" or "none", "pfs-drain"),
	// drained once after the remote level settles.
	Bottom            string
	BottomAggregateBW float64
	BottomStripeBW    float64

	// Failures are the scheduled faults, on the absolute virtual clock.
	Failures []fault.Event
	// FaultModel, when set, adds stochastic failures on top of Failures:
	// exponential inter-arrival times per class, seeded and deterministic,
	// drawn over all Nodes and, for the correlated classes, Topo.
	FaultModel *fault.Model
	// FaultSeed seeds the injector's corruption RNG (victim selection and
	// bit positions for nvm-corrupt faults).
	FaultSeed int64

	// PayloadCap caps real payload bytes per chunk (default 4 KB for
	// cluster-scale runs; unit tests use larger).
	PayloadCap    int
	SingleVersion bool

	// Lineage, when set and enabled, attaches the per-chunk causal tracer
	// and online invariant checker to the run's event bus. Strict mode makes
	// Run fail loudly on the first invariant violation.
	Lineage *lineage.Config

	// SLO, when set and enabled, attaches the virtual-time flight recorder
	// (windowed SLO time series + online objective evaluation) to the run's
	// event bus. Strict mode makes Run fail loudly on the first objective
	// breach.
	SLO *slo.Config

	// Drift, when set and enabled, attaches the model-drift observatory to
	// the run's event bus: windowed online estimators of the §III model
	// inputs, per-window model re-evaluation with measured values, drift
	// gauges and phase-change detection. Strict mode makes Run fail loudly
	// when a drift limit is violated.
	Drift *drift.Config

	// Stagger, when enabled, gates remote (buddy) drains behind an
	// admission gate: at most MaxConcurrent node drains in flight, grants
	// Slot apart — the control plane's cap on peak interconnect usage
	// (Fig 9/10's ckpt_window_bytes). Global coupling: pins the serial
	// engine.
	Stagger policy.StaggerSpec
	// ReplanOnFailure re-homes remote replica placement away from the
	// victims of a hard or correlated failure during recovery (a no-op
	// under erasure, whose parity nodes sit outside the fleet).
	ReplanOnFailure bool
	// Control, when set, hooks an external controller (the checkpoint
	// control plane) into the run: live injection, cancellation, ticks.
	// Global coupling: pins the serial engine.
	Control *Control

	// Shards partitions the node set onto N independent event engines run in
	// conservative lockstep (see DESIGN.md §12). 0 and 1 run the classic
	// serial engine. Requests the topology cannot honor are capped;
	// configurations with global coupling (failures, a bottom tier, a
	// non-shard-local remote policy, an external controller, drain
	// staggering) fall back to the serial engine with an EvEngineWarn on
	// the bus. Lineage, SLO and drift do not block sharding: they fold the
	// merged stream after the run.
	Shards int

	// nodeOffset / rankOffset shift this instance's node and rank numbering
	// when it runs as one shard of a partitioned cluster, so recorder scopes,
	// process names and span lanes stay globally unique and the merged
	// observability streams read like one cluster's.
	nodeOffset int
	rankOffset int
	// shardFallback is the warning text for a requested sharded run that
	// fell back to the serial engine, emitted as an EvEngineWarn once the
	// bus exists.
	shardFallback string
}

func (cfg *Config) setDefaults() {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.CoresPerNode == 0 {
		cfg.CoresPerNode = 12
	}
	if cfg.DRAMPerNode == 0 {
		cfg.DRAMPerNode = 48 * mem.GB
	}
	if cfg.NVMPerNode == 0 {
		cfg.NVMPerNode = 48 * mem.GB
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 5
	}
	if cfg.LocalEvery == 0 {
		cfg.LocalEvery = scenario.DefaultLocalEvery
	}
	if cfg.RemoteEvery == 0 {
		cfg.RemoteEvery = scenario.DefaultRemoteEvery
	}
	if cfg.PayloadCap == 0 {
		cfg.PayloadCap = 4096
	}
}

// coresOf is node n's rank count: its shape's, or the homogeneous default.
func (cfg *Config) coresOf(n int) int {
	if n < len(cfg.Shapes) && cfg.Shapes[n].Cores > 0 {
		return cfg.Shapes[n].Cores
	}
	return cfg.CoresPerNode
}

// rankBases is the prefix-sum rank numbering of a (possibly heterogeneous)
// node set: rankBases()[n] is node n's first rank, rankBases()[Nodes] the
// total rank count. Homogeneous clusters reduce to n*CoresPerNode.
func (cfg *Config) rankBases() []int {
	rb := make([]int, cfg.Nodes+1)
	for n := 0; n < cfg.Nodes; n++ {
		rb[n+1] = rb[n] + cfg.coresOf(n)
	}
	return rb
}

// totalRanks is the cluster's rank (process) count across all node shapes.
func (cfg *Config) totalRanks() int {
	t := 0
	for n := 0; n < cfg.Nodes; n++ {
		t += cfg.coresOf(n)
	}
	return t
}

// Validate checks a configuration after defaulting, returning an actionable
// error instead of letting a degenerate run proceed silently.
func (cfg *Config) Validate() error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("cluster: nodes must be >= 1, got %d", cfg.Nodes)
	}
	if cfg.CoresPerNode < 1 {
		return fmt.Errorf("cluster: cores per node must be >= 1, got %d", cfg.CoresPerNode)
	}
	if cfg.DRAMPerNode <= 0 {
		return fmt.Errorf("cluster: dram per node must be positive, got %d", cfg.DRAMPerNode)
	}
	if cfg.NVMPerNode <= 0 {
		return fmt.Errorf("cluster: nvm per node must be positive, got %d", cfg.NVMPerNode)
	}
	if cfg.NVMPerCoreBW < 0 {
		return fmt.Errorf("cluster: nvm bandwidth per core must be non-negative, got %g", cfg.NVMPerCoreBW)
	}
	if cfg.LinkBW < 0 {
		return fmt.Errorf("cluster: link bandwidth must be non-negative, got %g", cfg.LinkBW)
	}
	if cfg.LocalRateCap < 0 {
		return fmt.Errorf("cluster: local rate cap must be non-negative, got %g", cfg.LocalRateCap)
	}
	if cfg.RemoteRateCap < 0 {
		return fmt.Errorf("cluster: remote rate cap must be non-negative, got %g", cfg.RemoteRateCap)
	}
	if cfg.Iterations < 1 {
		return fmt.Errorf("cluster: iterations must be >= 1, got %d", cfg.Iterations)
	}
	if cfg.LocalEvery < 1 {
		return fmt.Errorf("cluster: local checkpoint interval must be >= 1, got %d", cfg.LocalEvery)
	}
	if cfg.RemoteEvery < 1 {
		return fmt.Errorf("cluster: remote checkpoint interval must be >= 1, got %d", cfg.RemoteEvery)
	}
	if cfg.RemoteGroup < 0 {
		return fmt.Errorf("cluster: remote group must be >= 0, got %d", cfg.RemoteGroup)
	}
	if len(cfg.App.Chunks) == 0 {
		return fmt.Errorf("cluster: workload %q has no chunks", cfg.App.Name)
	}
	if cfg.PayloadCap < 1 {
		return fmt.Errorf("cluster: payload cap must be >= 1, got %d", cfg.PayloadCap)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("cluster: shards must be >= 0, got %d", cfg.Shards)
	}
	if len(cfg.Shapes) != 0 && len(cfg.Shapes) != cfg.Nodes {
		return fmt.Errorf("cluster: %d node shapes for %d nodes", len(cfg.Shapes), cfg.Nodes)
	}
	for n, s := range cfg.Shapes {
		if s.Cores < 0 || s.DRAM < 0 || s.NVM < 0 || s.NVMPerCoreBW < 0 {
			return fmt.Errorf("cluster: node %d shape has negative fields: %+v", n, s)
		}
	}
	if cfg.Topo != nil && cfg.Topo.Nodes() != cfg.Nodes {
		return fmt.Errorf("cluster: topology covers %d nodes, cluster has %d", cfg.Topo.Nodes(), cfg.Nodes)
	}
	if len(cfg.NodeStart) != 0 && len(cfg.NodeStart) != cfg.Nodes {
		return fmt.Errorf("cluster: %d node start delays for %d nodes", len(cfg.NodeStart), cfg.Nodes)
	}
	for n, d := range cfg.NodeStart {
		if d < 0 {
			return fmt.Errorf("cluster: node %d start delay %v is negative", n, d)
		}
	}
	if _, err := policy.ParsePlacement(cfg.Placement); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if cfg.Stagger.MaxConcurrent < 0 || cfg.Stagger.Slot < 0 {
		return fmt.Errorf("cluster: stagger fields must be non-negative (max %d, slot %v)",
			cfg.Stagger.MaxConcurrent, cfg.Stagger.Slot)
	}
	for i, ev := range cfg.Failures {
		if err := ev.Validate(cfg.Nodes, cfg.Topo); err != nil {
			return fmt.Errorf("cluster: failure %d: %w", i, err)
		}
	}
	if m := cfg.FaultModel; m != nil {
		if err := m.Validate(cfg.Topo); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	if _, err := policy.Parse(policy.KindLocal, cfg.Local); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if _, err := policy.Parse(policy.KindRemote, cfg.Remote); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if _, err := policy.Parse(policy.KindBottom, cfg.Bottom); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if cfg.SLO != nil && cfg.SLO.Enabled {
		if err := cfg.SLO.Spec.Validate(); err != nil {
			return err
		}
	}
	if cfg.Drift != nil && cfg.Drift.Enabled {
		if err := cfg.Drift.Spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	// ExecTime is when the last rank finished its final iteration
	// (excluding remote-checkpoint drain).
	ExecTime time.Duration
	// LocalCkpts counts coordinated checkpoint rounds completed.
	LocalCkpts int
	// RemoteCkpts counts remote checkpoint triggers.
	RemoteCkpts int
	// CkptTimePerRank is the mean, per rank, of time spent blocked in
	// coordinated local checkpoints.
	CkptTimePerRank time.Duration
	// DataToNVMPerRank is the mean bytes a rank moved DRAM→NVM over the
	// run (pre-copy plus checkpoint — the Figures 7/8 right axis).
	DataToNVMPerRank float64
	// HelperUtil is each remote-tier helper's busy fraction (Table V).
	HelperUtil []float64
	// PreCopyBytes and CkptBytes split DataToNVM by origin.
	PreCopyBytes int64
	CkptBytes    int64
	// Restores / RemoteRestores count chunk recoveries after failures.
	Restores       int64
	RemoteRestores int64
	// PreCopyHitRate is the fraction of DRAM→NVM checkpoint traffic moved by
	// background pre-copy rather than at the blocking checkpoint (Figure 9).
	PreCopyHitRate float64
	// ReDirtyRate is re-dirtied (wasted) pre-copies per pre-copied chunk.
	ReDirtyRate float64
	// PeakCkptWindowBytes is the largest checkpoint volume the fabric moved
	// in any PeakWindow-wide window (Figure 10).
	PeakCkptWindowBytes float64
	// BottomObjects / BottomBytes / BottomDrainTime summarize the bottom
	// tier's end-of-run drain (zero when no bottom tier is configured).
	BottomObjects   int
	BottomBytes     int64
	BottomDrainTime time.Duration
	// FailuresInjected counts failures that actually fired.
	FailuresInjected int
	// FailuresSkipped counts scheduled failures dropped because no epoch was
	// live or another failure was already pending.
	FailuresSkipped int
	// Corruptions is how many committed chunks nvm-corrupt faults damaged;
	// LinkFlaps counts link-degradation events.
	Corruptions int
	LinkFlaps   int
	// RecoveryLocal/Remote/Bottom/Lost split post-failure chunk recoveries
	// by the cascade tier that served them.
	RecoveryLocal  int64
	RecoveryRemote int64
	RecoveryBottom int64
	RecoveryLost   int64
	// ShipRetries / BuddyFailovers count helper degraded-mode activity.
	ShipRetries    int64
	BuddyFailovers int64
	// MTTR is the mean failure→all-ranks-recovered repair time; DegradedTime
	// sums repair windows and link-flap outages.
	MTTR         time.Duration
	DegradedTime time.Duration
	// LineageViolations counts online invariant-checker breaches (zero when
	// the lineage tracer is disabled).
	LineageViolations int
	// SLOViolations counts objective breach episodes from the SLO flight
	// recorder (zero when SLO recording is disabled).
	SLOViolations int
	// DriftViolations counts drift-limit breach episodes from the model-drift
	// observatory (zero when drift recording is disabled).
	DriftViolations int
	// WorkloadChecksum fingerprints the final epoch's application memory; a
	// faulted run must match its fault-free twin.
	WorkloadChecksum uint64
	// Ranks is the total rank count.
	Ranks int
	// DrainGrants / DrainMaxQueued report the stagger gate's admissions and
	// deepest backlog (zero when staggering is off).
	DrainGrants    int
	DrainMaxQueued int
	// Replans counts placement re-plans applied during recovery.
	Replans int
}

// Cluster is a running (or finished) simulation instance.
type Cluster struct {
	Cfg    Config
	Env    *sim.Env
	Fabric *interconnect.Fabric
	// Obs is the run's observability hub: typed events and metrics.
	Obs *obs.Observer
	// Lineage is the run's causal chunk tracer (nil unless Cfg.Lineage
	// enables it).
	Lineage *lineage.Tracer
	// SLO is the run's flight recorder (nil unless Cfg.SLO enables it).
	SLO *slo.Recorder
	// Drift is the run's model-drift observatory (nil unless Cfg.Drift
	// enables it). On a sharded run the three consumers hang off the
	// coordinator and fold the merged event stream at collect time.
	Drift *drift.Observatory

	kernels []*nvmkernel.Kernel
	// sums is this event engine's recipe checksum memo, shared by its
	// kernels and dropped when Execute returns.
	sums *nvmkernel.SumMemo
	// rankBase is the prefix-sum rank numbering over this instance's nodes
	// (rankBase[n] = node n's first rank; rankBase[Nodes] = total ranks).
	rankBase []int
	barrier  rendezvous
	// newBarrier, when set, supplies the rendezvous ranks block on at
	// checkpoint boundaries instead of a fresh sim.Barrier — the sharded
	// engine injects each shard's cross-barrier gate here.
	newBarrier func(parties int) rendezvous
	// sharded is non-nil on the coordinator cluster of a partitioned run.
	sharded *shardEngine
	// executed is set once Execute starts; chrome is the attached timeline
	// tap (ChromeTrace), nil when the run is not traced.
	executed bool
	chrome   *ChromeTrace

	localScheme precopy.Scheme
	remoteTier  RemoteTier
	bottom      *pfs.FS

	// epoch state
	rankProcs []*sim.Proc
	engines   []*precopy.Engine
	// epochStores holds the live epoch's stores — the set the final content
	// checksum walks. A recovery epoch replaces them, and the run's totals
	// live in the registry, so a dead epoch's stores are not kept.
	epochStores []*core.Store
	lastRemote  map[int]*sim.Completion
	// lastDrain chains mid-run bottom drains per holder node so drains of
	// successive remote bursts never overlap.
	lastDrain map[int]*sim.Completion

	committedIter  int
	pendingFailure *fault.Event
	ranksLive      bool
	appDone        time.Duration
	helperUtil     []float64
	bottomStats    pfs.DrainStats

	ckptTime   []time.Duration // per rank index, accumulated
	localCount int
	remCount   int
	failCount  int

	// control-plane machinery
	drainGate *policy.DrainGate
	injector  *fault.Injector
	// epochGen counts epoch spawns so deferred drain-admit processes can
	// detect that the epoch they queued for died.
	epochGen int
	// driveDone flips when the driver finishes teardown; the control tick
	// stops re-arming on it so the event queue can drain.
	driveDone   bool
	aborted     string
	replanCount int

	// degraded-mode bookkeeping
	flapCount     int
	failureAt     time.Duration
	recoverWait   int
	mttrTotal     time.Duration
	mttrN         int
	degradedTotal time.Duration
	workSum       uint64
}

// rendezvous is the coordination point rank processes block on at
// checkpoint boundaries: a per-epoch sim.Barrier in the serial engine, a
// cross-shard gate in the sharded one.
type rendezvous interface {
	Await(p *sim.Proc)
}

// New builds a cluster (devices, kernels, fabric, policy tiers) without
// running it. The configuration is validated; policy names resolve through
// the policy name tables.
func New(cfg Config) (*Cluster, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		// Shard if possible, and say why not when it is not. A fallen-back
		// run records the engine it actually ran on.
		reason := shardBlocker(&cfg)
		if reason == "" {
			if n := min(cfg.Shards, maxShardCount(&cfg)); n > 1 {
				cfg.Shards = n
				return newSharded(cfg)
			}
			reason = "topology supports only one shard"
		}
		cfg.shardFallback = fmt.Sprintf("shards=%d requested but running serial: %s", cfg.Shards, reason)
		cfg.Shards = 1
	}
	c, err := build(cfg)
	if err != nil {
		return nil, err
	}
	c.attachConsumers()
	return c, nil
}

// build assembles one event engine's cluster from a validated, defaulted
// configuration: a serial run, or one shard of a partitioned run. It
// attaches no bus consumer.
func build(cfg Config) (*Cluster, error) {
	localEntry, _ := policy.Parse(policy.KindLocal, cfg.Local)
	remoteEntry, _ := policy.Parse(policy.KindRemote, cfg.Remote)
	bottomEntry, _ := policy.Parse(policy.KindBottom, cfg.Bottom)

	env := sim.NewEnv()
	totalNodes := cfg.Nodes + parityNodes(remoteEntry.Name, &cfg)
	fabric := interconnect.New(env, totalNodes, cfg.LinkBW)
	kernels := make([]*nvmkernel.Kernel, cfg.Nodes)
	sums := nvmkernel.NewSumMemo()
	nvms := make([]*mem.Device, totalNodes)
	for n := 0; n < cfg.Nodes; n++ {
		dramCap, nvmCap := cfg.DRAMPerNode, cfg.NVMPerNode
		bw, cores := cfg.NVMPerCoreBW, cfg.coresOf(n)
		if n < len(cfg.Shapes) {
			s := cfg.Shapes[n]
			if s.DRAM > 0 {
				dramCap = s.DRAM
			}
			if s.NVM > 0 {
				nvmCap = s.NVM
			}
			if s.NVMPerCoreBW > 0 {
				bw = s.NVMPerCoreBW
			}
		}
		dram := mem.NewDRAM(env, dramCap)
		var nvm *mem.Device
		if bw > 0 {
			nvm = mem.NewPCMWithPerCoreBW(env, nvmCap, bw, cores)
		} else {
			nvm = mem.NewPCM(env, nvmCap)
		}
		kernels[n] = nvmkernel.New(env, dram, nvm)
		kernels[n].ShareSums(sums)
		nvms[n] = nvm
	}
	for n := cfg.Nodes; n < totalNodes; n++ {
		nvms[n] = mem.NewPCM(env, cfg.NVMPerNode)
	}
	o := obs.New(env)
	if cfg.shardFallback != "" {
		o.Recorder(0, "cluster").Log(obs.EvEngineWarn, "", 0,
			obs.Str("code", "shard-fallback"), obs.Str("msg", cfg.shardFallback))
	}
	fabric.SetRecorder(o.Recorder(cfg.nodeOffset, "fabric"))

	rankBase := cfg.rankBases()
	c := &Cluster{
		Cfg:         cfg,
		Env:         env,
		Fabric:      fabric,
		Obs:         o,
		kernels:     kernels,
		sums:        sums,
		rankBase:    rankBase,
		localScheme: localEntry.Scheme,
		lastRemote:  make(map[int]*sim.Completion),
		lastDrain:   make(map[int]*sim.Completion),
		ckptTime:    make([]time.Duration, rankBase[cfg.Nodes]),
		drainGate:   policy.NewDrainGate(env, cfg.Stagger),
	}
	var err error
	if c.remoteTier, err = newRemoteTier(c, remoteEntry.Name, nvms); err != nil {
		return nil, fmt.Errorf("cluster: remote policy %q: %w", remoteEntry.Name, err)
	}
	if bottomEntry.Name != "none" {
		if c.remoteTier == nil {
			return nil, fmt.Errorf("cluster: bottom policy %q needs a remote tier to drain from", bottomEntry.Name)
		}
		c.bottom = pfs.New(env, cfg.BottomAggregateBW, cfg.BottomStripeBW)
		// The PFS mirrors its drain writes onto the event bus so the lineage
		// tracer (and trace sinks) see bottom-tier copies land.
		c.bottom.SetRecorder(o.Recorder(0, "pfs"))
	}
	return c, nil
}

// attachConsumers attaches the configured whole-run bus consumers — the
// lineage tracer, the SLO flight recorder and the drift observatory — as
// taps on c's observer. It runs once per run, on the observer that sees the
// whole cluster's stream: a serial run's, or a partitioned run's
// coordinator, whose observer receives the shards' merged stream.
func (c *Cluster) attachConsumers() {
	cfg := &c.Cfg
	if cfg.Lineage != nil && cfg.Lineage.Enabled {
		c.Lineage = lineage.Attach(c.Obs)
	}
	if cfg.SLO != nil && cfg.SLO.Enabled {
		c.SLO = slo.Attach(c.Obs, *cfg.SLO)
	}
	if cfg.Drift != nil && cfg.Drift.Enabled {
		c.Drift = drift.Attach(c.Obs, *cfg.Drift, driftInputs(cfg))
	}
}

// sealConsumers closes the bus consumers at the run's end — the SLO
// recorder's and the drift observatory's tail windows and final objectives
// — and books their violation counts into res, before strict checks and
// report builders read them.
func (c *Cluster) sealConsumers(res *Result) {
	now := c.Env.Now()
	if c.Lineage != nil {
		res.LineageViolations = c.Lineage.ViolationCount()
	}
	if c.SLO != nil {
		c.SLO.Finalize(now)
		res.SLOViolations = c.SLO.ViolationCount()
	}
	if c.Drift != nil {
		c.Drift.Finalize(now)
		res.DriftViolations = c.Drift.ViolationCount()
	}
}

// strictErr is the strict-mode verdict of the run's bus consumers: the
// first error of a strict lineage tracer, SLO recorder or drift
// observatory, in that order.
func (c *Cluster) strictErr() error {
	if c.Lineage != nil && c.Cfg.Lineage.Strict {
		if err := c.Lineage.Err(); err != nil {
			return err
		}
	}
	if c.SLO != nil && c.SLO.Strict() {
		if err := c.SLO.Err(); err != nil {
			return err
		}
	}
	if c.Drift != nil && c.Drift.Strict() {
		if err := c.Drift.Err(); err != nil {
			return err
		}
	}
	return nil
}

// driftInputs lowers the declared configuration to the §III model inputs the
// drift observatory predicts from: the analyze-time parameters an operator
// would compute offline, before any telemetry corrects them.
func driftInputs(cfg *Config) drift.Inputs {
	re, _ := policy.Parse(policy.KindRemote, cfg.Remote)
	remoteOn := re != nil && re.Name != "none"
	p := model.Params{
		TCompute:      cfg.App.IterTime * time.Duration(cfg.Iterations),
		CkptSize:      cfg.App.CheckpointSize(),
		NVMBWPerCore:  cfg.NVMPerCoreBW,
		IntervalLocal: cfg.App.IterTime * time.Duration(cfg.LocalEvery),
	}
	if remoteOn {
		p.IntervalRemote = cfg.App.IterTime * time.Duration(cfg.LocalEvery*cfg.RemoteEvery)
		p.RemoteBWPerCore = cfg.RemoteRateCap
		if p.RemoteBWPerCore <= 0 && cfg.CoresPerNode > 0 {
			// No explicit drain cap: a node's ranks share the fabric link.
			p.RemoteBWPerCore = cfg.LinkBW / float64(cfg.CoresPerNode)
		}
	}
	if m := cfg.FaultModel; m != nil {
		p.MTBFLocal = m.MTBFSoft
		p.MTBFRemote = m.MTBFHard
	}
	return drift.Inputs{
		Params:   p,
		Ranks:    cfg.totalRanks(),
		IterTime: cfg.App.IterTime,
		RemoteOn: remoteOn,
	}
}

// nodeOfRank resolves a rank to its owning node through the prefix sums.
func (c *Cluster) nodeOfRank(rank int) int {
	return sort.Search(c.Cfg.Nodes, func(n int) bool { return c.rankBase[n+1] > rank })
}

// recorder mints the observability recorder of one of c's nodes. node is
// c's own numbering; the recorder carries the node as the bus numbers it,
// which on one shard of a partitioned cluster is offset.
func (c *Cluster) recorder(node int, actor string) *obs.Recorder {
	return c.Obs.Recorder(node+c.Cfg.nodeOffset, actor)
}

// Kernel returns node n's kernel (for tests). Nodes are numbered globally;
// on a sharded cluster the lookup resolves into the owning shard.
func (c *Cluster) Kernel(n int) *nvmkernel.Kernel {
	if c.sharded != nil {
		sub := c.sharded.shardOf(n)
		return sub.kernels[n-sub.Cfg.nodeOffset]
	}
	return c.kernels[n]
}

// RemoteTier returns the composed remote tier (nil when disabled). A sharded
// cluster has one tier instance per shard; this returns shard 0's, which is
// enough for "is the remote level on" checks.
func (c *Cluster) RemoteTier() RemoteTier {
	if c.sharded != nil {
		return c.sharded.subs[0].remoteTier
	}
	return c.remoteTier
}

// EventsFired counts simulation events dispatched by the run's engine —
// summed across shards in sharded mode (the coordinator's merge env
// dispatches almost nothing itself).
func (c *Cluster) EventsFired() uint64 {
	if c.sharded != nil {
		return c.sharded.group.EventsFired()
	}
	return c.Env.EventsFired()
}

// CkptFabricBytes is the checkpoint-class traffic the fabric moved, summed
// across shards in sharded mode (where the coordinator has no fabric of its
// own and c.Fabric is nil).
func (c *Cluster) CkptFabricBytes() float64 {
	if c.sharded != nil {
		var t float64
		for _, sub := range c.sharded.subs {
			t += sub.Fabric.Bytes(interconnect.ClassCkpt)
		}
		return t
	}
	return c.Fabric.Bytes(interconnect.ClassCkpt)
}

// Run executes the configured workload to completion (surviving injected
// failures) and returns the result summary.
func Run(cfg Config) (Result, *Cluster, error) {
	c, err := New(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	res, err := c.Execute()
	return res, c, err
}

// Execute runs an already-built cluster to completion. Callers that need the
// cluster's surfaces before the run starts (e.g. to mount a live
// introspection server over Obs and Lineage) use New + Execute instead of
// Run.
func (c *Cluster) Execute() (Result, error) {
	c.executed = true
	defer c.dropSums()
	if c.sharded != nil {
		res, err := c.executeSharded()
		if err != nil {
			return res, err
		}
		return res, c.strictErr()
	}
	events := c.Cfg.Failures
	if m := c.Cfg.FaultModel; m != nil {
		events = slices.Concat(events, m.Schedule(c.Cfg.Nodes, c.Cfg.Topo))
	}
	// A Control-enabled run keeps the injector around even with no
	// pre-scheduled events, so commands arriving over the API can inject
	// failures mid-flight.
	if len(events) > 0 || c.Cfg.Control != nil {
		c.injector = fault.NewInjector(c.Env, c.Cfg.FaultSeed, c.Cfg.Topo, fault.Surfaces{
			Kill:       c.injectFailure,
			CorruptNVM: c.corruptNVM,
			FlapLink:   c.flapLink,
		})
		c.injector.ScheduleAll(events)
	}
	c.startControl()
	c.Env.Go("driver", c.drive)
	c.Env.Run()
	res := c.collect()
	if c.aborted != "" {
		return res, fmt.Errorf("cluster: run aborted: %s", c.aborted)
	}
	return res, c.strictErr()
}

// dropSums releases the run's recipe checksum memos, one per event engine,
// so a finished cluster retains none of them.
func (c *Cluster) dropSums() {
	c.sums.Drop()
	if c.sharded != nil {
		for _, sub := range c.sharded.subs {
			sub.sums.Drop()
		}
	}
}

// RelaunchDelay is the job relaunch latency charged on every restart
// (scheduler requeue, process startup) — the fixed term of any MTTR before
// the restore traffic itself.
const RelaunchDelay = 2 * time.Second

// MustRun is Run for callers with statically known-good configurations
// (experiment harnesses, examples, tests); it panics on a config error.
func MustRun(cfg Config) (Result, *Cluster) {
	res, c, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res, c
}

// drive runs epochs (spawn ranks, join, recover) until the job completes.
func (c *Cluster) drive(p *sim.Proc) {
	for {
		procs := c.spawnEpoch(p)
		c.ranksLive = true
		for _, rp := range procs {
			p.Join(rp)
		}
		c.ranksLive = false
		if c.pendingFailure == nil || c.aborted != "" {
			break
		}
		f := *c.pendingFailure
		c.pendingFailure = nil
		c.recover(p, f)
	}
	c.appDone = p.Now()
	c.workSum = c.contentChecksum()
	// Drain outstanding remote checkpoints, then shut everything down.
	for n := 0; n < c.Cfg.Nodes; n++ {
		if done := c.lastRemote[n]; done != nil {
			done.Await(p)
		}
	}
	// Capture helper utilization before the tier is torn down; the
	// denominator is the post-drain clock since the helpers may still have
	// been working past the application's completion.
	if c.remoteTier != nil {
		c.helperUtil = c.remoteTier.Utilization(p.Now())
	}
	c.drainBottom(p)
	c.shutdown()
	c.driveDone = true
}

// drainBottom flushes every remote holder's committed objects to the bottom
// tier, one concurrent drain per holder (the hierarchy experiment's final
// stage). No-op without a bottom tier.
func (c *Cluster) drainBottom(p *sim.Proc) {
	if c.bottom == nil || c.remoteTier == nil {
		return
	}
	// Mid-run drains chained off remote bursts must settle first so the final
	// sweep never runs concurrently against the same holder.
	for n := 0; n < c.Fabric.Nodes(); n++ {
		if comp := c.lastDrain[n]; comp != nil {
			comp.Await(p)
		}
	}
	start := p.Now()
	var procs []*sim.Proc
	for n := 0; n < c.Fabric.Nodes(); n++ {
		mesh := c.remoteTier.DrainMesh(n)
		if mesh == nil {
			continue
		}
		procs = append(procs, c.Env.Go(fmt.Sprintf("drain/node%d", n), func(dp *sim.Proc) {
			st := c.bottom.Drain(dp, mesh, n)
			c.bottomStats.Objects += st.Objects
			c.bottomStats.Bytes += st.Bytes
		}))
	}
	for _, dp := range procs {
		p.Join(dp)
	}
	c.bottomStats.Duration = p.Now() - start
}

// spawnEpoch builds fresh per-epoch machinery (barrier, tier epoch state,
// engines, stores) and spawns one process per rank, resuming at the committed
// iteration.
func (c *Cluster) spawnEpoch(p *sim.Proc) []*sim.Proc {
	cfg := c.Cfg
	ranks := c.rankBase[cfg.Nodes]
	if c.newBarrier != nil {
		c.barrier = c.newBarrier(ranks)
	} else {
		c.barrier = sim.NewBarrier(c.Env, ranks)
	}
	c.engines = nil
	c.epochStores = nil
	c.epochGen++
	if c.remoteTier != nil {
		c.remoteTier.BeginEpoch()
	}
	start := c.committedIter
	procs := make([]*sim.Proc, 0, ranks)
	for r := 0; r < ranks; r++ {
		procs = append(procs, c.Env.Go(fmt.Sprintf("rank%d", r+cfg.rankOffset), func(p *sim.Proc) {
			c.rankBody(p, r, start)
		}))
	}
	c.rankProcs = procs
	return procs
}

// rankBody is one application process: setup/recovery, then the iterate →
// coordinated-checkpoint loop.
func (c *Cluster) rankBody(p *sim.Proc, rank, startIter int) {
	cfg := c.Cfg
	node := c.nodeOfRank(rank)
	lane := rank - c.rankBase[node]
	cores := cfg.coresOf(node)
	leader := lane == 0
	kernel := c.kernels[node]
	// Fleet ramp-up: a node's ranks come up NodeStart[node] into the run.
	// Restart epochs relaunch everyone together (RelaunchDelay covers it).
	if startIter == 0 && node < len(cfg.NodeStart) && cfg.NodeStart[node] > 0 {
		p.Sleep(cfg.NodeStart[node])
	}
	// Names and recorder scopes carry the shard offsets so the merged
	// observability streams of a partitioned run number ranks and nodes
	// globally; all engine-side indexing stays shard-local.
	name := fmt.Sprintf("rank%d", rank+cfg.rankOffset)
	rec := c.recorder(node, name)

	store := core.NewStore(kernel.Attach(name), core.Options{
		PayloadCap:    cfg.PayloadCap,
		SingleVersion: cfg.SingleVersion,
		// A corrupted local version must surface as a degraded-mode signal
		// (drop to the next cascade tier), not a fatal restore error.
		SalvageCorrupt: true,
	})
	// Attach before workload setup so restore events are captured too.
	store.SetRecorder(rec)
	c.epochStores = append(c.epochStores, store)

	// Stagger each rank's communication phases so co-located ranks do not
	// inject at identical instants — real ranks drift apart; perfect
	// alignment would manufacture artificial self-contention.
	spec := cfg.App
	if spec.CommPerIter > 0 {
		n := len(spec.CommPhases)
		if n == 0 {
			n = workload.DefaultCommOps
			for i := 0; i < n; i++ {
				spec.CommPhases = append(spec.CommPhases, (float64(i)+0.5)/float64(n))
			}
		} else {
			spec.CommPhases = append([]float64(nil), spec.CommPhases...)
		}
		offset := float64(lane) / float64(cores) / float64(n)
		for i := range spec.CommPhases {
			ph := spec.CommPhases[i] + offset
			if ph > 1 {
				ph -= 1
			}
			spec.CommPhases[i] = ph
		}
	}

	app, err := workload.Setup(p, store, spec)
	if err != nil {
		panic(fmt.Sprintf("cluster: rank %d setup: %v", rank, err))
	}
	// Post-failure recovery cascade, per chunk: a surviving local version
	// restored in place ("local"), else the remote tier's committed copy
	// (buddy replica or parity rebuild, "remote"), else the bottom tier's
	// drained object ("bottom"). A chunk no tier can serve is "lost" — the
	// replayed iterations regenerate it.
	if startIter > 0 {
		reg := c.Obs.Registry()
		for _, ch := range app.Chunks {
			tier := "local"
			if !ch.Restored {
				tier = "lost"
				var fetchSeq uint64
				if c.remoteTier != nil {
					if data, _, seq, ok := c.remoteTier.Fetch(p, node, lane, name, ch.ID); ok {
						if err := store.AdoptRemote(p, ch, data); err != nil {
							panic(err)
						}
						tier, fetchSeq = "remote", seq
					}
				}
				if tier == "lost" && c.bottom != nil {
					if data, _, seq, err := c.bottom.Read(p, name+"/"+ch.Name); err == nil {
						if err := store.AdoptBottom(p, ch, data); err != nil {
							panic(err)
						}
						tier, fetchSeq = "bottom", seq
					}
				}
				rec.Log(obs.EvChunkRecovered, name+"/"+ch.Name, ch.Size,
					obs.Str("tier", tier), obs.Int("seq", int64(fetchSeq)))
			}
			reg.Counter("recovery_path", obs.Labels{"tier": tier}).Add(1)
			rec.Child(tier).Add("recovery_chunks", 1)
		}
		// The last rank through the cascade closes the repair window.
		c.recoverWait--
		if c.recoverWait == 0 {
			mttr := p.Now() - c.failureAt
			c.mttrTotal += mttr
			c.mttrN++
			c.degradedTotal += mttr
			rec.Log(obs.EvRepairDone, "", 0, obs.Int("mttr_us", mttr.Microseconds()))
		}
	}
	app.SyncIteration(int64(startIter))
	app.Comm = func(p *sim.Proc, bytes int64) {
		c.Fabric.Send(p, node, (node+1)%cfg.Nodes, bytes)
	}

	var engine *precopy.Engine
	if !cfg.NoCheckpoint {
		engine = precopy.New(store, precopy.Config{
			Scheme:    c.localScheme,
			RateCap:   cfg.LocalRateCap,
			BWPerCore: kernel.NVM.PerCoreWriteBW(cores),
			Rec:       rec,
		})
		c.engines = append(c.engines, engine)
	}
	if c.remoteTier != nil {
		c.remoteTier.Register(node, store)
	}

	for iter := startIter; iter < cfg.Iterations; iter++ {
		if engine != nil && iter%cfg.LocalEvery == 0 {
			engine.BeginInterval(p)
		}
		if c.remoteTier != nil && leader && iter%cfg.RemoteEvery == 0 {
			c.remoteTier.BeginInterval(node)
		}
		iterStart := p.Now()
		if err := app.Iterate(p); err != nil {
			panic(err)
		}
		rec.LogSpan(iterStart, obs.EvIteration, "", 0, obs.Int("iter", int64(iter)))
		if cfg.NoCheckpoint {
			c.barrier.Await(p)
			if rank == 0 {
				c.committedIter = iter + 1
			}
			continue
		}
		if (iter+1)%cfg.LocalEvery != 0 {
			// Mid-interval iteration: no coordinated checkpoint; recovery
			// would roll back to the last checkpointed iteration.
			continue
		}
		engine.Quiesce(p)
		c.barrier.Await(p) // coordinated checkpoint entry
		ckStart := p.Now()
		var st core.CkptStats
		if cfg.ForceFull {
			st = store.ChkptAllForce(p)
		} else {
			st = store.ChkptAll(p)
		}
		engine.OnCheckpoint(ckStart)
		c.ckptTime[rank] += st.Duration
		c.barrier.Await(p) // checkpoint exit
		if rank == 0 {
			c.committedIter = iter + 1
			c.localCount++
		}
		if c.remoteTier != nil && leader && (iter+1)%cfg.RemoteEvery == 0 {
			c.lastRemote[node] = c.triggerRemote(p, node)
			rec.Log(obs.EvRemoteTrigger, "", 0, obs.Int("iter", int64(iter)))
			if c.bottom != nil {
				c.scheduleDrain(node, c.lastRemote[node])
			}
			if rank == 0 {
				c.remCount++
			}
		}
	}
}

// injectFailure fires from scheduler context: it kills every rank process
// and records the failure for the driver's recovery pass. A buddy-loss fault
// resolves its victim first — the node physically holding ev.Node's remote
// copies — and takes that node's NVM with it. Faults that land while no epoch
// is live (or while another failure is pending) are not silently dropped:
// they are counted and published as skipped.
func (c *Cluster) injectFailure(ev fault.Event) {
	if !c.ranksLive || c.pendingFailure != nil {
		reason := "ranks-not-live"
		if c.pendingFailure != nil {
			reason = "failure-pending"
		}
		srec := c.Obs.Recorder(ev.Node, "cluster")
		srec.Add("failures_skipped", 1)
		srec.Log(obs.EvFailureSkipped, "", 0,
			obs.Str("kind", string(ev.Kind)), obs.Str("reason", reason))
		return
	}
	if ev.Kind == fault.BuddyLoss && c.remoteTier != nil {
		if holder := c.remoteTier.HolderOf(ev.Node); holder >= 0 && holder < c.Cfg.Nodes {
			ev.Node = holder
		}
	}
	c.pendingFailure = &ev
	c.failCount++
	c.failureAt = c.Env.Now()
	victims, hard := c.failureEffect(ev)
	if c.remoteTier != nil {
		for _, n := range victims {
			c.remoteTier.NodeFailed(n, hard)
		}
	}
	frec := c.Obs.Recorder(ev.Node, "cluster")
	attrs := []obs.Attr{
		obs.Str("kind", string(ev.Kind)),
		obs.Str("cause", ev.Label()),
		obs.Bool("hard", hard),
	}
	if ev.Kind.Correlated() {
		// Domain outages fail many nodes at once; downstream consumers
		// (the lineage invariant checker in particular) need the full
		// victim set to invalidate every copy the outage takes with it.
		attrs = append(attrs, obs.Str("victims", joinNodes(victims)))
	}
	frec.Log(obs.EvFailure, "", 0, attrs...)
	for _, rp := range c.rankProcs {
		if !rp.Done() {
			rp.Kill()
		}
	}
}

// joinNodes renders node ids as the comma-separated list that event
// attributes carry.
func joinNodes(nodes []int) string {
	b := make([]byte, 0, 4*len(nodes))
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}

// failureEffect resolves an event's victim node set (domain kinds fail every
// node of the targeted domain atomically) and whether the victims' NVM dies
// with them: hard and buddy-loss faults always, domain outages unless Soft.
func (c *Cluster) failureEffect(ev fault.Event) (victims []int, hard bool) {
	victims = ev.Victims(c.Cfg.Topo)
	switch {
	case ev.Kind == fault.Hard || ev.Kind == fault.BuddyLoss:
		hard = true
	case ev.Kind.Correlated():
		hard = !ev.Soft
	}
	return victims, hard
}

// corruptNVM damages committed chunk payloads on ev.Node's NVM (bit-flips, or
// torn writes when ev.Torn). The damage is latent: it surfaces only when a
// later recovery's restore hits the checksum mismatch.
func (c *Cluster) corruptNVM(rng *rand.Rand, ev fault.Event) int {
	if ev.Node < 0 || ev.Node >= len(c.kernels) {
		return 0
	}
	victims := core.CorruptCommitted(c.kernels[ev.Node], rng, ev.Chunks, ev.Torn)
	rec := c.Obs.Recorder(ev.Node, "cluster")
	rec.Add("nvm_corruptions", int64(len(victims)))
	rec.Log(obs.EvNVMCorrupt, fmt.Sprintf("%d chunks", len(victims)), 0, obs.Bool("torn", ev.Torn))
	for _, v := range victims {
		rec.Log(obs.EvChunkCorrupt, v.Key(), v.Size,
			obs.Int("seq", int64(v.Seq)), obs.Int("version", int64(v.Version)),
			obs.Bool("torn", ev.Torn), obs.Str("cause", ev.Label()))
	}
	return len(victims)
}

// flapLink degrades (Factor in (0,1)) or cuts (Factor 0) a node's fabric
// links and schedules the restore after ev.Duration. In-flight transfers
// stall or stretch; helpers see the outage through their pre-flight estimate
// and back off.
func (c *Cluster) flapLink(ev fault.Event) {
	c.flapCount++
	c.degradedTotal += ev.Duration
	c.Fabric.SetLinkFactor(ev.Node, ev.Factor)
	c.Obs.Recorder(ev.Node, "cluster").Log(obs.EvLinkFlap, "", 0,
		obs.Str("factor", fmt.Sprintf("%g", ev.Factor)),
		obs.Str("secs", fmt.Sprintf("%g", ev.Duration.Seconds())),
		obs.Str("cause", ev.Label()))
	node := ev.Node
	c.Env.Schedule(ev.Duration, func() {
		c.Fabric.RestoreLink(node)
		c.Obs.Recorder(node, "cluster").Log(obs.EvLinkRestore, "", 0)
	})
}

// scheduleDrain chains a bottom-tier drain of node's remote holder behind the
// burst that done tracks, making drained objects available for bottom-tier
// recovery mid-run rather than only at the end. Drains on one holder are
// serialized; pfs drains are version-idempotent so overlap with the final
// sweep is harmless in content, only double-costed — hence the chaining.
func (c *Cluster) scheduleDrain(node int, done *sim.Completion) {
	holder := c.remoteTier.HolderOf(node)
	mesh := c.remoteTier.DrainMesh(holder)
	if mesh == nil {
		return
	}
	prev := c.lastDrain[holder]
	comp := sim.NewCompletion(c.Env)
	c.lastDrain[holder] = comp
	c.Env.Go(fmt.Sprintf("drain/mid/node%d", holder), func(p *sim.Proc) {
		if prev != nil {
			prev.Await(p)
		}
		done.Await(p)
		st := c.bottom.Drain(p, mesh, holder)
		c.bottomStats.Objects += st.Objects
		c.bottomStats.Bytes += st.Bytes
		comp.Complete()
	})
}

// contentChecksum fingerprints every live store's persistent chunk contents,
// in process-name order, so runs of the same scenario compare bit-for-bit.
func (c *Cluster) contentChecksum() uint64 {
	stores := append([]*core.Store(nil), c.epochStores...)
	sort.Slice(stores, func(i, j int) bool {
		return stores[i].Proc().Name() < stores[j].Proc().Name()
	})
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range stores {
		sum := s.ContentChecksum()
		for i := 0; i < 8; i++ {
			buf[i] = byte(sum >> (8 * i))
		}
		h.Write([]byte(s.Proc().Name()))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// recover applies the failure's effect on the machines and tears down the
// dead epoch's machinery. The whole job restarts from the last coordinated
// checkpoint: every node's processes are gone (DRAM state lost), NVM
// survives everywhere except a hard-failed node.
func (c *Cluster) recover(p *sim.Proc, f fault.Event) {
	for _, e := range c.engines {
		e.Stop()
	}
	victims, hard := c.failureEffect(f)
	dead := make(map[int]bool, len(victims))
	for _, n := range victims {
		dead[n] = true
	}
	for n, k := range c.kernels {
		if hard && dead[n] {
			k.HardFail()
		} else {
			k.SoftReset()
		}
	}
	// Re-home replica placement away from the victims before the next
	// epoch's BeginEpoch rebuilds the helper agents: a hard or correlated
	// loss took (or will keep taking) the copies those nodes held, so the
	// re-rung plan stops routing anyone's remote copies at them.
	if c.Cfg.ReplanOnFailure && c.remoteTier != nil && (hard || f.Kind.Correlated()) {
		if c.remoteTier.Replan(victims) {
			c.replanCount++
			c.Obs.Recorder(f.Node, "cluster").Log(obs.EvReplan, "", 0,
				obs.Str("kind", string(f.Kind)), obs.Str("avoid", joinNodes(victims)))
		}
	}
	c.recoverWait = c.rankBase[c.Cfg.Nodes]
	p.Sleep(RelaunchDelay)
	if c.remoteTier != nil {
		for _, n := range victims {
			c.remoteTier.NodeRecovered(n)
		}
	}
	c.Obs.Recorder(f.Node, "cluster").Log(obs.EvRecovery, "", 0,
		obs.Int("resume_iter", int64(c.committedIter)),
		obs.Str("kind", string(f.Kind)), obs.Str("cause", f.Label()))
}

// shutdown stops engines and the remote tier so the event queue drains.
func (c *Cluster) shutdown() {
	for _, e := range c.engines {
		e.Stop()
	}
	if c.remoteTier != nil {
		c.remoteTier.Shutdown()
	}
}

// collect aggregates counters into a Result.
func (c *Cluster) collect() Result {
	cfg := c.Cfg
	ranks := c.rankBase[cfg.Nodes]
	res := Result{
		ExecTime:         c.appDone,
		LocalCkpts:       c.localCount,
		RemoteCkpts:      c.remCount,
		FailuresInjected: c.failCount,
		Ranks:            ranks,
	}
	var ckptTotal time.Duration
	for _, d := range c.ckptTime {
		ckptTotal += d
	}
	res.CkptTimePerRank = ckptTotal / time.Duration(ranks)
	res.HelperUtil = c.helperUtil
	res.BottomObjects = c.bottomStats.Objects
	res.BottomBytes = c.bottomStats.Bytes
	res.BottomDrainTime = c.bottomStats.Duration

	c.deriveFromRegistry(&res)
	reg := c.Obs.Registry()

	// Degraded-mode accounting: which cascade tier served each recovered
	// chunk, and repair-time gauges.
	res.LinkFlaps = c.flapCount
	res.RecoveryLocal = reg.Counter("recovery_path", obs.Labels{"tier": "local"}).Get()
	res.RecoveryRemote = reg.Counter("recovery_path", obs.Labels{"tier": "remote"}).Get()
	res.RecoveryBottom = reg.Counter("recovery_path", obs.Labels{"tier": "bottom"}).Get()
	res.RecoveryLost = reg.Counter("recovery_path", obs.Labels{"tier": "lost"}).Get()
	if c.mttrN > 0 {
		res.MTTR = c.mttrTotal / time.Duration(c.mttrN)
	}
	res.DegradedTime = c.degradedTotal
	c.sealConsumers(&res)
	res.WorkloadChecksum = c.workSum
	reg.Gauge("mttr_seconds", nil).Set(res.MTTR.Seconds())
	reg.Gauge("degraded_seconds_total", nil).Set(res.DegradedTime.Seconds())
	if c.drainGate != nil {
		res.DrainGrants = c.drainGate.Grants
		res.DrainMaxQueued = c.drainGate.MaxQueued
	}
	res.Replans = c.replanCount
	return res
}

// deriveFromRegistry fills the figures both engines derive from the
// cluster-scope rollups of c's registry — the run's byte, restore, skipped
// failure and corruption totals, the Figure 9 pre-copy hit and re-dirty
// rates, the Figure 10 peak per-window checkpoint traffic, and the helper
// ship-retry and buddy-failover counts — and publishes the three rates back
// as gauges so the report sinks pick them up. The registry is each total's
// one home: a sharded run reads the merged registry, and a recovered run
// reads what every epoch's stores booked.
func (c *Cluster) deriveFromRegistry(res *Result) {
	reg := c.Obs.Registry()
	// Total never creates a series; these two reads do, so every report
	// carries the hit rate's operands even when a run books neither.
	res.PreCopyBytes = reg.Counter("precopy_bytes", nil).Get()
	res.CkptBytes = reg.Counter("ckpt_bytes", nil).Get()
	res.Restores = reg.Total("restores")
	res.RemoteRestores = reg.Total("remote_restores")
	res.FailuresSkipped = int(reg.Total("failures_skipped"))
	res.Corruptions = int(reg.Total("nvm_corruptions"))
	res.DataToNVMPerRank = float64(res.PreCopyBytes+res.CkptBytes) / float64(res.Ranks)
	pre, ck := float64(res.PreCopyBytes), float64(res.CkptBytes)
	if pre+ck > 0 {
		res.PreCopyHitRate = pre / (pre + ck)
	}
	precopied := float64(reg.Counter("chunks_precopied", nil).Get())
	if precopied > 0 {
		res.ReDirtyRate = float64(reg.Counter("redirtied_chunks", nil).Get()) / precopied
	}
	res.PeakCkptWindowBytes, _ = reg.Timeline("fabric_bytes", obs.Labels{"class": "ckpt"}).
		PeakDiffBucket(c.Env.Now(), PeakWindow)
	reg.Gauge("precopy_hit_rate", nil).Set(res.PreCopyHitRate)
	reg.Gauge("redirty_rate", nil).Set(res.ReDirtyRate)
	reg.Gauge("peak_ckpt_window_bytes", nil).Set(res.PeakCkptWindowBytes)
	res.ShipRetries = reg.Counter("helper_ship_retries", nil).Get()
	res.BuddyFailovers = reg.Counter("helper_buddy_failovers", nil).Get()
}

// PeakWindow is the window width used for the peak-interconnect-usage figure
// (Figure 10 samples checkpoint traffic in 5-second buckets).
const PeakWindow = 5 * time.Second
