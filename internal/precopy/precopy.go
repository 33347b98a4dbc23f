// Package precopy implements the paper's three local pre-copy schemes
// (Section IV): chunk-based pre-copy (CPC), delayed chunk pre-copy (DCPC),
// and delayed pre-copy with prediction (DCPCP). An Engine is a background
// process attached to one rank's checkpoint store. It watches chunk-level
// modification events (protection faults surfaced through core.Store's
// OnModify hook), and stages dirty chunks to NVM ahead of the coordinated
// checkpoint so that the checkpoint itself moves less data at lower peak
// bandwidth.
//
//   - CPC copies a chunk as soon as it goes dirty — maximal overlap, but hot
//     chunks are copied repeatedly.
//   - DCPC waits until the pre-copy threshold T_p = I − D/NVMBW_core of each
//     interval has passed (learned from the first checkpoint and re-adapted
//     every interval), so short-lived re-dirtying early in the interval costs
//     nothing.
//   - DCPCP additionally learns, during the first interval, how many times
//     each chunk is modified per iteration (Figure 6's prediction table) and
//     refuses to pre-copy a chunk until its modification count for the
//     current interval has reached the learned count — hot chunks that keep
//     changing until the end of the iteration are left for the checkpoint.
package precopy

import (
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/model"
	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// Scheme selects the pre-copy policy.
type Scheme int

const (
	// NoPreCopy disables background copying; every dirty chunk is moved at
	// the coordinated checkpoint.
	NoPreCopy Scheme = iota
	// CPC copies chunks as soon as they are modified.
	CPC
	// DCPC delays pre-copy until the adaptive threshold within each interval.
	DCPC
	// DCPCP is DCPC plus the per-chunk modification-count prediction table.
	DCPCP
)

func (s Scheme) String() string {
	switch s {
	case CPC:
		return "cpc"
	case DCPC:
		return "dcpc"
	case DCPCP:
		return "dcpcp"
	default:
		return "none"
	}
}

// Config tunes an Engine.
type Config struct {
	Scheme Scheme
	// BWPerCore is the effective NVM write bandwidth per core used by the
	// threshold calculation (NVMBW_core).
	BWPerCore float64
	// Rec publishes engine activity onto the run's observability bus
	// (nil-safe; nil disables instrumentation).
	Rec *obs.Recorder
}

// Engine is one rank's background pre-copy worker.
type Engine struct {
	cfg   Config
	store *core.Store
	env   *sim.Env
	proc  *sim.Proc
	wake  *sim.Signal
	// thresholdWake broadcasts wake at the current interval's threshold;
	// BeginInterval re-arms it, dropping a shorter interval's stale wake.
	thresholdWake sim.Timer

	intervalStart time.Duration
	interval      time.Duration // learned checkpoint interval I
	threshold     time.Duration // learned T_p
	learned       bool          // first checkpoint seen

	// prediction table (DCPCP), indexed by the chunks' AllocSeq: a chunk
	// deleted and allocated again under its name starts a fresh entry.
	predicted []int32 // learned modification episodes per interval
	modsNow   []int32 // episodes observed this interval

	quiesced bool
	copying  bool
	copyDone sim.Completion // reset per copy: a quiescer waits on the one in flight
	stopped  bool

	// Meter tracks worker busy time (pre-copy CPU usage).
	Meter obs.Meter
	// Counters are the engine's counts (engineCounters), readable by name
	// and booked under the same names into cfg.Rec's registry. The bytes a
	// pre-copy moves are counted once, by core.Store.PreCopyChunk.
	Counters obs.Counters
}

// Engine counters, indexing Engine.Counters. Raced copies are chunks
// modified again while their pre-copy was in flight — work the checkpoint
// must redo.
const (
	cModEvents = iota
	cCopies
	cRacedCopies
)

var engineCounters = obs.NewCounterSet("", []string{
	cModEvents:   "mod_events",
	cCopies:      "precopy_copies",
	cRacedCopies: "raced_copies",
}...)

// New attaches an engine to a store and starts its background worker.
func New(store *core.Store, cfg Config) *Engine {
	env := store.Kernel().Env()
	e := &Engine{
		cfg:      cfg,
		store:    store,
		env:      env,
		wake:     sim.NewSignal(env),
		Counters: engineCounters.New(),
	}
	e.Counters.SetRecorder(cfg.Rec)
	e.thresholdWake.Init(env, e.wake.Broadcast)
	e.copyDone.Reset(env)
	e.copyDone.Complete() // not copying initially
	store.OnModify(e.onModify)
	if cfg.Scheme != NoPreCopy {
		e.proc = env.Go("precopy/"+store.Proc().Name(), e.run)
	}
	return e
}

// onModify runs inside the faulting application process whenever a clean
// chunk is first modified: it updates per-interval episode counters, re-arms
// protection when more episodes must be counted, and nudges the worker.
func (e *Engine) onModify(c *core.Chunk) {
	if e.cfg.Scheme == NoPreCopy {
		return
	}
	i := c.AllocSeq()
	for len(e.modsNow) <= i {
		e.modsNow = append(e.modsNow, 0)
	}
	e.modsNow[i]++
	e.Counters[cModEvents].Add(1)
	switch e.cfg.Scheme {
	case DCPCP:
		// Keep counting episodes until the prediction is met (or while
		// learning); each re-protect costs the app one mprotect and the
		// next touch one fault — the dirt-tracking cost the paper notes.
		// The re-protect is deferred to the end of the faulting write.
		if !e.learned || e.modsNow[i] < at(e.predicted, i) {
			c.DeferProtect()
		}
	case CPC, DCPC:
		// Chunk-level tracking only: one fault per interval per chunk.
	}
	e.wake.Broadcast()
}

// BeginInterval marks the start of a compute interval (right after a
// coordinated checkpoint). For delayed schemes it arms the threshold
// wakeup.
func (e *Engine) BeginInterval(p *sim.Proc) {
	e.intervalStart = e.env.Now()
	e.quiesced = false
	clear(e.modsNow)
	if e.cfg.Scheme != NoPreCopy {
		// Arm modification tracking on chunks that are not yet protected
		// (fresh allocations; staged chunks are already protected).
		for i := 0; i < e.store.NumChunks(); i++ {
			if c := e.store.ChunkAt(i); c.Persistent && !c.Protected() {
				c.Protect(p)
			}
		}
	}
	if e.cfg.Scheme == DCPC || e.cfg.Scheme == DCPCP {
		if e.learned {
			e.thresholdWake.Arm(e.threshold)
		}
	}
	e.wake.Broadcast()
}

// OnCheckpoint informs the engine that a coordinated checkpoint just
// completed, letting it learn or adapt the interval, checkpoint volume and
// prediction table. ckptStart is when the checkpoint began.
func (e *Engine) OnCheckpoint(ckptStart time.Duration) {
	if e.cfg.Scheme == NoPreCopy {
		return
	}
	interval := ckptStart - e.intervalStart
	if interval <= 0 {
		return
	}
	e.interval = interval
	if e.cfg.BWPerCore > 0 {
		e.threshold = model.PreCopyThreshold(e.interval, e.store.CheckpointSize(), e.cfg.BWPerCore)
	}
	if !e.learned {
		// End of the learning phase: freeze the prediction table.
		e.predicted = append(e.predicted[:0], e.modsNow...)
		e.learned = true
	} else if e.cfg.Scheme == DCPCP {
		// Continuous adaptation: follow drift in modification behaviour.
		for len(e.predicted) < len(e.modsNow) {
			e.predicted = append(e.predicted, 0)
		}
		for i, n := range e.modsNow {
			e.predicted[i] = max(e.predicted[i], n)
		}
	}
}

// Quiesce stops the worker from starting new copies and waits for any copy
// in flight, so the coordinated checkpoint never races a background stage.
func (e *Engine) Quiesce(p *sim.Proc) {
	e.quiesced = true
	e.copyDone.Await(p)
}

// Stop terminates the worker permanently.
func (e *Engine) Stop() {
	e.stopped = true
	if e.proc != nil && !e.proc.Done() {
		e.proc.Kill()
	}
}

// run is the background worker loop. With no candidate it parks on wake
// with no timeout: every change that can make nextCandidate return a chunk
// broadcasts wake — onModify on each clean→dirty edge and counted episode,
// BeginInterval after lifting the quiesce and re-arming protection, and the
// threshold timer for the delayed schemes — so no clock ever needs to.
func (e *Engine) run(p *sim.Proc) {
	for !e.stopped {
		c := e.nextCandidate()
		if c == nil {
			e.wake.Wait(p)
			continue
		}
		e.copying = true
		e.copyDone.Reset(e.env)
		start := p.Now()
		e.Meter.Start(start)
		seqBefore := c.ModSeq()
		n := e.store.PreCopyChunk(p, c)
		e.Meter.Stop(p.Now())
		e.copying = false
		e.copyDone.Complete()
		if n > 0 {
			raced := c.ModSeq() != seqBefore
			e.Counters[cCopies].Add(1)
			if raced {
				e.Counters[cRacedCopies].Add(1)
			}
			e.cfg.Rec.LogSpan(start, obs.EvPrecopyCopy, c.Name, n,
				obs.Bool("raced", raced), obs.Int("seq", int64(c.StagedSeq())))
		}
	}
}

// nextCandidate picks the next chunk eligible for background staging, in
// allocation order, or nil when none is eligible yet.
func (e *Engine) nextCandidate() *core.Chunk {
	if e.quiesced || e.stopped {
		return nil
	}
	switch e.cfg.Scheme {
	case CPC:
		// Eager: anything dirty.
	case DCPC, DCPCP:
		if !e.learned {
			return nil // learning interval: observe only
		}
		if e.env.Now() < e.intervalStart+e.threshold {
			return nil
		}
	default:
		return nil
	}
	for i := 0; i < e.store.NumChunks(); i++ {
		c := e.store.ChunkAt(i)
		if !c.Persistent || !c.Dirty() {
			continue
		}
		if e.cfg.Scheme == DCPCP {
			if i := c.AllocSeq(); at(e.modsNow, i) < at(e.predicted, i) {
				continue // still expected to change; leave it alone
			}
		}
		return c
	}
	return nil
}

// at returns s[i], or 0 past the end of s.
func at(s []int32, i int) int32 {
	if i < len(s) {
		return s[i]
	}
	return 0
}
