package cluster

import (
	"fmt"
	"math"
	"time"

	"nvmcp/internal/drift"
	"nvmcp/internal/policy"
	"nvmcp/internal/scenario"
	"nvmcp/internal/slo"
)

// FromScenario is the one validating lowering of a scenario into a runnable
// Config. It checks the scenario's own rules (Scenario.Validate), lowers the
// spec once, expanding a fleet into its one topology, and holds a defaulted
// copy of the result to Config.Validate, so a spec that New would refuse is
// refused here, with the scenario's name. The returned config is not
// defaulted, which keeps the RunReport's config echo as written; policy
// names resolve against the internal/policy name tables when the cluster is
// built.
func FromScenario(sc *scenario.Scenario) (Config, error) {
	if err := sc.Validate(); err != nil {
		return Config{}, err
	}
	cfg, err := lower(sc)
	if err == nil {
		check := cfg
		check.setDefaults()
		err = check.Validate()
	}
	if err != nil {
		name := "(unnamed)"
		if sc.Name != "" {
			name = fmt.Sprintf("%q", sc.Name)
		}
		return Config{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	return cfg, nil
}

// lower translates a scenario that passed Scenario.Validate into a Config.
func lower(sc *scenario.Scenario) (Config, error) {
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
		LocalEvery:   sc.Local.Every,
		ForceFull:    sc.Local.ForceFull,
		NoCheckpoint: sc.NoCheckpoint,

		Remote:        sc.Remote.Policy,
		RemoteRateCap: remoteRate,
		RemoteEvery:   sc.Remote.Every,
		RemoteGroup:   sc.Remote.Group,
		Stagger: policy.StaggerSpec{
			MaxConcurrent: sc.Remote.StaggerMax,
			// Rounded down, so a slot under a nanosecond below zero stays
			// negative for Config.Validate to refuse.
			Slot: time.Duration(math.Floor(sc.Remote.StaggerSlotSecs * float64(time.Second))),
		},
		ReplanOnFailure: sc.Remote.Replan,

		Bottom: sc.Bottom.Policy,

		PayloadCap:    sc.PayloadCap,
		SingleVersion: sc.SingleVersion,

		Shards: sc.Shards,
	}
	if sc.Fleet != nil {
		// A fleet spec generates the machine shape: per-node core counts,
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
			cfg.Shapes[i] = NodeShape{Cores: s.Cores}
		}
	}
	for i, f := range sc.Failures {
		ev, err := f.Event()
		if err != nil {
			return Config{}, fmt.Errorf("failure %d: %w", i, err)
		}
		cfg.Failures = append(cfg.Failures, ev)
	}
	if sc.FaultModel != nil {
		m := sc.FaultModel.Model()
		cfg.FaultModel = &m
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

// RunScenario builds and runs a scenario end to end.
func RunScenario(sc *scenario.Scenario) (Result, *Cluster, error) {
	cfg, err := FromScenario(sc)
	if err != nil {
		return Result{}, nil, err
	}
	return Run(cfg)
}
