// Package sim implements a deterministic discrete-event simulation kernel.
//
// An Env owns a virtual clock and an event queue. Simulated activities are
// either bare events (callbacks scheduled at a virtual time) or processes
// (Proc), which are goroutines that run one at a time under the scheduler's
// control, in the style of coroutine-based simulators such as SimPy. Because
// at most one goroutine — the scheduler or exactly one process — is runnable
// at any instant, simulations are fully deterministic: two runs with the same
// seeds produce identical event orders and identical virtual timings.
//
// Virtual time is expressed as time.Duration since the start of the
// simulation. It has no relation to wall-clock time; a simulated hour costs
// only the CPU time needed to execute its events.
package sim

import (
	"fmt"
	"time"
)

// Env is a simulation environment: a virtual clock plus a pending event
// queue. Create one with NewEnv, populate it with Go and Schedule, then call
// Run or RunUntil. An Env must not be shared across host goroutines except
// through the Proc mechanism itself.
//
// Events due at the current instant live in a FIFO ring (nowq) instead of
// the time-ordered ladder queue: the dominant scheduling pattern is an
// immediate wake (Sleep(0), wakeLater, handoffs), and a ring append/pop is
// O(1). Dispatch order is still strictly (time, seq) — the ring only ever
// holds events stamped at the current time with monotonically increasing
// sequence numbers, so comparing the ring head against the ladder's front
// reproduces the exact total order a single priority queue would produce.
type Env struct {
	now    time.Duration
	queue  ladder
	seq    uint64 // tie-breaker for events scheduled at the same instant
	parked chan struct{}
	cur    *Proc // process currently executing, nil in scheduler context
	fatal  any   // panic value captured from a process, re-raised by Run
	nprocs int   // live (started, not yet finished) processes
	brk    bool  // Break() requested: pause the run loop after this dispatch

	nowq     []*Event // FIFO of events due at the current instant
	nowqHead int
	free     []*Event // recycled internal (direct-wake) events
	nfired   uint64   // events dispatched over the Env's lifetime

	// arena chunk-allocates events (see alloc); arenaUsed indexes the
	// current block's next free slot.
	arena     []Event
	arenaUsed int

	// warnFn receives rare, deduplicated engine warnings (the obs layer
	// attaches the run's event bus here); negWarned latches the one-shot
	// negative-delay warning.
	warnFn    func(code, msg string)
	negWarned bool
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{parked: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// EventsFired returns the number of events dispatched so far — the
// denominator of the perf harness's events/sec throughput figure.
func (e *Env) EventsFired() uint64 { return e.nfired }

// Schedule registers fn to run at Now()+delay in scheduler context and
// returns a handle that may be used to cancel it. Events at equal times fire
// in scheduling order.
//
// Contract: delay must be non-negative — virtual time never runs backwards.
// A negative delay is clamped to zero (the event fires at the current
// instant, after events already due), and the first occurrence per Env
// raises a "negative-delay" engine warning through the warn hook so the
// modeling bug that produced it is visible on the run's event bus rather
// than silently absorbed.
func (e *Env) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		if !e.negWarned {
			e.negWarned = true
			if e.warnFn != nil {
				e.warnFn("negative-delay", fmt.Sprintf(
					"Schedule called with negative delay %v at t=%v; clamped to 0 (reported once)",
					delay, e.now))
			}
		}
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// SetWarnFunc installs the engine's warning sink: rare, deduplicated
// conditions (e.g. the first negative-delay Schedule) — not a general
// logging path. obs.New attaches the run's event bus here so warnings become
// typed events.
func (e *Env) SetWarnFunc(fn func(code, msg string)) { e.warnFn = fn }

// At registers fn to run at absolute virtual time t. If t is in the past it
// fires at the current time (but never before events already due).
func (e *Env) At(t time.Duration, fn func()) *Event {
	ev := e.alloc()
	ev.fn = fn
	e.enqueue(ev, t)
	return ev
}

// arenaBlock is how many events one arena chunk holds.
const arenaBlock = 256

// alloc hands out events from a chunked arena: a pointer bump in the common
// case, one block allocation per arenaBlock events — the zero-alloc dispatch
// path's counterpart to the direct-wake free list. Arena events are never
// recycled: callers may hold Cancel handles indefinitely, and reuse would
// let a stale handle cancel an unrelated occupant. (Pooled direct-wake
// events cycle through the generation-guarded free list instead.)
func (e *Env) alloc() *Event {
	if e.arenaUsed == len(e.arena) {
		e.arena = make([]Event, arenaBlock)
		e.arenaUsed = 0
	}
	ev := &e.arena[e.arenaUsed]
	e.arenaUsed++
	return ev
}

// enqueue stamps ev with (t, next seq) and routes it to the now-ring or the
// ladder. Events created through the public API come from the arena and are
// never recycled (callers may hold Cancel handles indefinitely); internal
// direct-wake events cycle through the free list.
func (e *Env) enqueue(ev *Event, t time.Duration) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.t = t
	ev.seq = e.seq
	if t == e.now {
		e.nowq = append(e.nowq, ev)
		return
	}
	e.queue.push(ev)
}

// scheduleWake schedules a direct wake of p's wait seq with kind k at
// Now()+delay, using a recycled event when one is free. The returned
// generation pairs with cancelWake: once the event fires or is collected,
// its generation advances and stale cancels become no-ops, which is what
// makes recycling safe.
func (e *Env) scheduleWake(delay time.Duration, p *Proc, seq uint64, k wakeKind) (*Event, uint64) {
	if delay < 0 {
		delay = 0
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.cancelled = false
	} else {
		ev = e.alloc()
		ev.pooled = true
	}
	ev.wakeP = p
	ev.wakeSeq = seq
	ev.wakeK = k
	e.enqueue(ev, e.now+delay)
	return ev, ev.gen
}

// cancelWake cancels a scheduleWake event if it has not already fired.
func (e *Env) cancelWake(ev *Event, gen uint64) {
	if ev.gen == gen {
		ev.cancelled = true
	}
}

// release returns a fired or cancelled internal event to the free list,
// advancing its generation so outstanding cancelWake handles expire.
func (e *Env) release(ev *Event) {
	if !ev.pooled {
		return
	}
	ev.gen++
	ev.wakeP = nil
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Run executes events until the queue is empty, advancing the virtual clock.
// If a process panics with anything other than a kill, Run re-panics with
// that value so test failures surface at the call site.
func (e *Env) Run() {
	e.RunUntil(1<<62 - 1)
}

// pending returns the total number of queued events.
func (e *Env) pending() int {
	return e.queue.len() + len(e.nowq) - e.nowqHead
}

// Break pauses the run loop after the event currently dispatching completes,
// leaving the clock and every queued event in place; the next Run or
// RunUntil resumes exactly where the loop stopped. The sharded engine's
// cross-shard gates call this when they fill, handing control back to the
// coordinator between rendezvous rounds.
func (e *Env) Break() { e.brk = true }

// RunUntil executes events with timestamps <= horizon, then sets the clock to
// horizon if it advanced that far. Events beyond the horizon stay queued and
// a later RunUntil or Run picks them up.
func (e *Env) RunUntil(horizon time.Duration) {
	for {
		var next *Event
		fromRing := false
		if e.nowqHead < len(e.nowq) {
			next = e.nowq[e.nowqHead]
			fromRing = true
		}
		if top := e.queue.peek(); top != nil {
			if next == nil || top.t < next.t || (top.t == next.t && top.seq < next.seq) {
				next = top
				fromRing = false
			}
		}
		if next == nil {
			break
		}
		if next.t > horizon {
			if e.now < horizon {
				e.now = horizon
			}
			return
		}
		if fromRing {
			e.nowq[e.nowqHead] = nil
			e.nowqHead++
			if e.nowqHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowqHead = 0
			}
		} else {
			e.queue.pop()
		}
		if next.cancelled {
			e.release(next)
			continue
		}
		e.now = next.t
		e.nfired++
		if next.wakeP != nil {
			p, seq, k := next.wakeP, next.wakeSeq, next.wakeK
			e.release(next)
			e.wake(p, seq, k)
		} else {
			fn := next.fn
			e.release(next)
			fn()
		}
		if e.fatal != nil {
			f := e.fatal
			e.fatal = nil
			panic(f)
		}
		if e.brk {
			e.brk = false
			return
		}
	}
	if e.now < horizon && horizon < 1<<62-1 {
		e.now = horizon
	}
}

// Idle reports whether no events remain queued.
func (e *Env) Idle() bool { return e.pending() == 0 }

// LiveProcs returns the number of processes that have been started and have
// not yet finished or been killed.
func (e *Env) LiveProcs() int { return e.nprocs }

// switchTo transfers control to p, delivering wake kind k, and blocks until p
// parks again or exits. It must only be called from scheduler context.
func (e *Env) switchTo(p *Proc, k wakeKind) {
	prev := e.cur
	e.cur = p
	p.resume <- k
	<-e.parked
	e.cur = prev
}

// wake resumes process p if and only if it is still parked on the wait
// identified by seq. Stale wakes (the process moved on) are ignored, which is
// what makes timeouts and racing signals safe.
func (e *Env) wake(p *Proc, seq uint64, k wakeKind) {
	if p.state != procParked || p.waitSeq != seq {
		return
	}
	p.state = procRunning
	e.switchTo(p, k)
}

// wakeLater schedules a wake of p for wait seq at the current instant. Use
// this from process context, where a direct switchTo would deadlock the
// scheduler handoff.
func (e *Env) wakeLater(p *Proc, seq uint64, k wakeKind) {
	e.scheduleWake(0, p, seq, k)
}

// Event is a cancellable scheduled callback.
type Event struct {
	t         time.Duration
	seq       uint64
	fn        func()
	cancelled bool

	// Direct-wake payload: internal events (Sleep timers, deferred wakes)
	// dispatch a wake without allocating a closure, and recycle through the
	// Env's free list guarded by the generation counter.
	wakeP   *Proc
	wakeSeq uint64
	wakeK   wakeKind
	pooled  bool
	gen     uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() { ev.cancelled = true }

// Time returns the virtual time at which the event is due.
func (ev *Event) Time() time.Duration { return ev.t }

// String implements fmt.Stringer for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now=%v queued=%d procs=%d}", e.now, e.pending(), e.nprocs)
}
