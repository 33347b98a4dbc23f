package cluster

import (
	"time"

	"nvmcp/internal/drift"
	"nvmcp/internal/fault"
	"nvmcp/internal/policy"
	"nvmcp/internal/scenario"
	"nvmcp/internal/slo"
)

// FromScenario lowers a declarative scenario into a runnable Config. The
// scenario is validated; policy names pass through untouched and resolve
// against the internal/policy name tables when the cluster is built.
func FromScenario(sc *scenario.Scenario) (Config, error) {
	if err := sc.Validate(); err != nil {
		return Config{}, err
	}
	app, err := sc.AppSpec()
	if err != nil {
		return Config{}, err
	}
	remoteRate, err := sc.ResolvedRemoteRateCap()
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Nodes:        sc.Nodes,
		CoresPerNode: sc.CoresPerNode,
		DRAMPerNode:  sc.DRAMPerNode,
		NVMPerNode:   sc.NVMPerNode,
		NVMPerCoreBW: sc.NVMPerCoreBW,
		LinkBW:       sc.LinkBW,
		Placement:    sc.Remote.Placement,

		App:        app,
		Iterations: sc.Iterations,

		Local:        sc.Local.Policy,
		LocalRateCap: sc.Local.RateCap,
		LocalEvery:   sc.Local.Every,
		ForceFull:    sc.Local.ForceFull,
		NoCheckpoint: sc.NoCheckpoint,

		Remote:        sc.Remote.Policy,
		RemoteRateCap: remoteRate,
		RemoteDelay:   time.Duration(sc.Remote.DelaySecs * float64(time.Second)),
		RemoteEvery:   sc.Remote.Every,
		RemoteGroup:   sc.Remote.Group,
		Stagger: policy.StaggerSpec{
			MaxConcurrent: sc.Remote.StaggerMax,
			Slot:          time.Duration(sc.Remote.StaggerSlotSecs * float64(time.Second)),
		},
		ReplanOnFailure: sc.Remote.Replan,

		Bottom:            sc.Bottom.Policy,
		BottomAggregateBW: sc.Bottom.AggregateBW,
		BottomStripeBW:    sc.Bottom.StripeBW,

		PayloadCap:    sc.PayloadCap,
		SingleVersion: sc.SingleVersion,

		Shards: sc.Shards,
	}
	if sc.Fleet != nil {
		// A fleet spec generates the machine shape: per-node cores/memory/BW,
		// the failure-domain topology, and the staggered start times. Ranks
		// are heterogeneous, so CoresPerNode stays 1 and the per-node shape
		// carries the real core count.
		fl, err := sc.Fleet.Expand()
		if err != nil {
			return Config{}, err
		}
		cfg.Nodes = sc.Fleet.Nodes
		cfg.CoresPerNode = 1
		cfg.Topo = fl.Topo
		cfg.NodeStart = fl.Start
		cfg.Shapes = make([]NodeShape, len(fl.Shapes))
		for i, s := range fl.Shapes {
			cfg.Shapes[i] = NodeShape{
				Cores:        s.Cores,
				DRAM:         s.DRAM,
				NVM:          s.NVM,
				NVMPerCoreBW: s.NVMPerCoreBW,
			}
		}
	}
	for _, f := range sc.Failures {
		cfg.Failures = append(cfg.Failures, failureFromSpec(f))
	}
	if m := sc.FaultModel; m != nil {
		cfg.FaultModel = &fault.Model{
			MTBFSoft: time.Duration(m.MTBFSoftSecs * float64(time.Second)),
			MTBFHard: time.Duration(m.MTBFHardSecs * float64(time.Second)),
			MTBFRack: time.Duration(m.MTBFRackSecs * float64(time.Second)),
			MTBFZone: time.Duration(m.MTBFZoneSecs * float64(time.Second)),
			Horizon:  time.Duration(m.HorizonSecs * float64(time.Second)),
			Seed:     m.Seed,
			Nodes:    cfg.Nodes,
			Topo:     cfg.Topo,
		}
	}
	cfg.FaultSeed = sc.FaultSeed
	if sc.SLO != nil {
		// A scenario that declares objectives gets the flight recorder
		// automatically; strict mode stays a caller decision (-slo-strict).
		cfg.SLO = &slo.Config{Enabled: true, Spec: sc.SLO}
	}
	if sc.Drift != nil {
		// Same shape for drift limits: declaring them turns the observatory
		// on; strict stays a caller decision (-drift-strict).
		cfg.Drift = &drift.Config{Enabled: true, Spec: *sc.Drift}
	}
	return cfg, nil
}

// failureFromSpec lowers one declarative failure into the cluster's event
// form. The control plane's live injection lowers through
// scenario.FailureSpec.Event instead, which refuses the same specs a
// scenario file's Validate does.
func failureFromSpec(f scenario.FailureSpec) FailureEvent {
	return FailureEvent{
		After:     time.Duration(f.AtSecs * float64(time.Second)),
		Node:      f.Node,
		Hard:      f.Hard,
		Kind:      fault.Kind(f.Kind),
		Chunks:    f.Chunks,
		Torn:      f.Torn,
		Duration:  time.Duration(f.DurationSecs * float64(time.Second)),
		Factor:    f.Factor,
		Provider:  f.Provider,
		Zone:      f.Zone,
		Rack:      f.Rack,
		Soft:      f.Soft,
		Waves:     f.Waves,
		WaveDelay: time.Duration(f.WaveDelaySecs * float64(time.Second)),
	}
}

// RunScenario builds and runs a scenario end to end.
func RunScenario(sc *scenario.Scenario) (Result, *Cluster, error) {
	cfg, err := FromScenario(sc)
	if err != nil {
		return Result{}, nil, err
	}
	return Run(cfg)
}
