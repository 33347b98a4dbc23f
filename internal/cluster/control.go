package cluster

import (
	"fmt"
	"time"

	"nvmcp/internal/fault"
	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// Control hooks an external controller — the checkpoint control plane — into
// a run. Both callbacks execute in scheduler context on the simulation
// goroutine: they may inspect the cluster and call Inject or Abort, but must
// never block on host-side synchronization that an HTTP handler might hold
// (the handler queues commands; the tick applies them). Because the hooks
// couple the whole cluster to one controller, a Config carrying a Control
// always runs on the serial engine.
type Control struct {
	// OnStart fires once at virtual t=0, before the driver spawns the
	// first epoch — the deterministic point to apply commands queued
	// before the run began.
	OnStart func(c *Cluster)
	// OnTick fires every controlTick of virtual time while the run is live.
	OnTick func(c *Cluster, now time.Duration)
}

// controlTick is the virtual-time interval between OnTick callbacks.
const controlTick = time.Second

// startControl arms the Control callbacks on the event queue. The recurring
// tick re-arms itself only while the driver is live, so the event queue can
// drain and Env.Run can return once the run completes.
func (c *Cluster) startControl() {
	ctl := c.Cfg.Control
	if ctl == nil {
		return
	}
	if ctl.OnStart != nil {
		c.Env.Schedule(0, func() { ctl.OnStart(c) })
	}
	if ctl.OnTick != nil {
		var arm func()
		arm = func() {
			if c.driveDone {
				return
			}
			ctl.OnTick(c, c.Env.Now())
			c.Env.Schedule(controlTick, arm)
		}
		c.Env.Schedule(controlTick, arm)
	}
}

// Inject schedules one failure event into the live run at ev.At on the
// *absolute* virtual clock (past instants are clamped to now). Scheduler-
// context only — control hooks call it; HTTP handlers must queue instead.
// Faults landing while no epoch is live are counted as skipped, exactly like
// pre-scheduled ones.
func (c *Cluster) Inject(ev fault.Event) error {
	if c.injector == nil {
		return fmt.Errorf("cluster: live injection needs a Control-enabled run")
	}
	if err := ev.Validate(c.Cfg.Nodes, c.Cfg.Topo); err != nil {
		return fmt.Errorf("cluster: inject: %w", err)
	}
	if now := c.Env.Now(); ev.At < now {
		ev.At = now
	}
	c.injector.ScheduleAll([]fault.Event{ev})
	return nil
}

// Abort cancels the run: every live rank process is killed and the driver
// finishes its teardown (final drains, shutdown) instead of respawning, so
// Env.Run still exits cleanly and artifacts stay readable. Execute reports
// the abort as an error. Scheduler-context only.
func (c *Cluster) Abort(reason string) {
	if c.aborted != "" || c.driveDone {
		return
	}
	c.aborted = reason
	c.Obs.Recorder(0, "control").Log(obs.EvAbort, "", 0, obs.Str("reason", reason))
	for _, rp := range c.rankProcs {
		if !rp.Done() {
			rp.Kill()
		}
	}
}

// Aborted reports the Abort reason, or "" for a normal run.
func (c *Cluster) Aborted() string { return c.aborted }

// ValidateFailure checks an event against the cluster's shape without
// scheduling it — the pre-flight the control plane's HTTP layer runs before
// queuing a command, so a malformed injection fails the request instead of
// surfacing as a note at the next tick. Host-safe: only immutable
// configuration is read.
func (c *Cluster) ValidateFailure(ev fault.Event) error {
	return ev.Validate(c.Cfg.Nodes, c.Cfg.Topo)
}

// triggerRemote starts node's remote checkpoint. Without a stagger gate it
// is the tier trigger itself; with one, the trigger is deferred to a
// drain-admit process that queues on the gate, so the rank's trigger point
// stays non-blocking while the fabric sees at most MaxConcurrent node
// drains Slot apart. The returned completion fires once the (possibly
// deferred) remote commit lands — the same contract the driver's end-of-run
// drain and the bottom tier's chaining rely on.
func (c *Cluster) triggerRemote(p *sim.Proc, node int) *sim.Completion {
	if c.drainGate == nil {
		return c.remoteTier.Trigger(p, node)
	}
	outer := sim.NewCompletion(c.Env)
	epoch := c.epochGen
	c.Env.Go(fmt.Sprintf("drain-admit/node%d", node), func(gp *sim.Proc) {
		c.drainGate.Acquire(gp)
		// The epoch may have died while we queued: its helper agents are
		// gone and the respawned epoch re-triggers on its own, so a stale
		// grant releases without touching the tier.
		if c.epochGen == epoch {
			c.remoteTier.Trigger(gp, node).Await(gp)
		}
		c.drainGate.Release()
		outer.Complete()
	})
	return outer
}
