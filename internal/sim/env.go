// Package sim implements a deterministic discrete-event simulation kernel.
//
// An Env owns a virtual clock and an event queue. Simulated activities are
// either bare events (callbacks scheduled at a virtual time) or processes
// (Proc), which are coroutines (iter.Pull) in the style of SimPy: the
// scheduler resumes a process with a direct coroutine switch, and the process
// runs until it parks and switches back. Because control is only ever in the
// scheduler or exactly one process, simulations are fully deterministic: two
// runs with the same seeds produce identical event orders and identical
// virtual timings.
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
// Future events wait in an indexed 4-ary min-heap on (time, seq); recycled
// events due at the current instant live in a FIFO ring (nowq) instead: the
// dominant scheduling pattern is an immediate wake (wakeLater, handoffs),
// and a ring append/pop is O(1). Dispatch order is still strictly (time,
// seq) — the ring only ever holds events stamped at the current time with
// monotonically increasing sequence numbers, so comparing the ring head
// against the heap's root reproduces the exact total order a single
// priority queue would produce.
//
// Events come in two lifetimes. A fire-and-forget event (Schedule, At, a
// deferred wake) returns to the Env's free list as it dispatches, so steady
// state allocates nothing; nothing outside the Env holds it. A Timer (a
// process's wait timeout, a Pipe's completion deadline) owns its event for
// life: it re-arms in place and stops by leaving the heap, and is never
// recycled, so a stale Stop cannot touch another event.
type Env struct {
	now    time.Duration
	queue  eventHeap
	seq    uint64 // tie-breaker for events scheduled at the same instant
	cur    *Proc  // process currently executing, nil in scheduler context
	fatal  any    // panic value captured from a process, re-raised by Run
	nprocs int    // live (started, not yet finished) processes
	brk    bool   // Break() requested: pause the run loop after this dispatch

	nowq     []*event // FIFO of recycled events due at the current instant
	nowqHead int
	free     []*event // dispatched fire-and-forget events, ready for reuse
	block    []event  // unused tail of the newest event block (see alloc)
	nfired   uint64   // events dispatched over the Env's lifetime

	// warnFn receives rare, deduplicated engine warnings (the obs layer
	// attaches the run's event bus here); negWarned latches the one-shot
	// negative-delay warning.
	warnFn    func(code, msg string)
	negWarned bool
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// EventsFired returns the number of events dispatched so far — the
// denominator of the perf harness's events/sec throughput figure.
func (e *Env) EventsFired() uint64 { return e.nfired }

// Schedule registers fn to run at Now()+delay in scheduler context. Events
// at equal times fire in scheduling order. To cancel or move a deadline,
// use a Timer.
//
// Contract: delay must be non-negative — virtual time never runs backwards.
// A negative delay is clamped to zero (the event fires at the current
// instant, after events already due), and the first occurrence per Env
// raises a "negative-delay" engine warning through the warn hook so the
// modeling bug that produced it is visible on the run's event bus rather
// than silently absorbed.
func (e *Env) Schedule(delay time.Duration, fn func()) {
	e.At(e.now+e.clamp(delay), fn)
}

// clamp enforces Schedule's non-negative delay contract.
func (e *Env) clamp(delay time.Duration) time.Duration {
	if delay >= 0 {
		return delay
	}
	if !e.negWarned {
		e.negWarned = true
		if e.warnFn != nil {
			e.warnFn("negative-delay", fmt.Sprintf(
				"Schedule called with negative delay %v at t=%v; clamped to 0 (reported once)",
				delay, e.now))
		}
	}
	return 0
}

// SetWarnFunc installs the engine's warning sink: rare, deduplicated
// conditions (e.g. the first negative-delay Schedule) — not a general
// logging path. obs.New attaches the run's event bus here so warnings become
// typed events.
func (e *Env) SetWarnFunc(fn func(code, msg string)) { e.warnFn = fn }

// At registers fn to run at absolute virtual time t. If t is in the past it
// fires at the current time (but never before events already due).
func (e *Env) At(t time.Duration, fn func()) {
	ev := e.alloc()
	ev.fn = fn
	e.enqueue(ev, t)
}

// eventBlock is how many events one allocation adds to the free list.
const eventBlock = 256

// alloc hands out a fire-and-forget event: a recycled one when the free
// list has one, else the next slot of a block allocated eventBlock at a
// time. Dispatched events return through release, so a run allocates
// blocks only until the free list covers its peak queue.
func (e *Env) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.block) == 0 {
		e.block = make([]event, eventBlock)
	}
	ev := &e.block[0]
	e.block = e.block[1:]
	return ev
}

// release returns a dispatched fire-and-forget event to the free list.
func (e *Env) release(ev *event) {
	ev.fn, ev.p = nil, nil
	e.free = append(e.free, ev)
}

// enqueue stamps a fire-and-forget event with (t, next seq) and routes it
// to the now-ring or the heap.
func (e *Env) enqueue(ev *event, t time.Duration) {
	e.seq++
	ev.t, ev.seq = max(t, e.now), e.seq
	if ev.t == e.now {
		e.nowq = append(e.nowq, ev)
		return
	}
	e.queue.push(ev)
}

// arm stamps an owned event with (t, next seq) — the same seq a Schedule
// at this point would take — and files it in the heap, re-keying it in
// place if it is already queued. Owned events never enter the ring, which
// cannot remove an entry; the heap orders them among same-instant ring
// events by seq all the same.
func (e *Env) arm(ev *event, t time.Duration) {
	e.seq++
	ev.t, ev.seq = max(t, e.now), e.seq
	if ev.pos == 0 {
		e.queue.push(ev)
		return
	}
	e.queue.fix(int(ev.pos-1), ev)
}

// stop takes an owned event out of the heap if it is queued.
func (e *Env) stop(ev *event) {
	if ev.pos > 0 {
		e.queue.remove(int(ev.pos - 1))
	}
}

// Run executes events until the queue is empty, advancing the virtual clock.
// If a process panics with anything other than a kill, Run re-panics with
// that value so test failures surface at the call site.
func (e *Env) Run() {
	e.RunUntil(1<<62 - 1)
}

// pending returns the total number of queued events.
func (e *Env) pending() int {
	return len(e.queue) + len(e.nowq) - e.nowqHead
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
		var next *event
		ring := e.nowqHead < len(e.nowq)
		if ring {
			next = e.nowq[e.nowqHead]
		}
		if len(e.queue) > 0 && (next == nil || before(e.queue[0], next)) {
			next, ring = e.queue[0], false
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
		if ring {
			e.nowq[e.nowqHead] = nil
			e.nowqHead++
			if e.nowqHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowqHead = 0
			}
		} else {
			e.queue.remove(0)
		}
		e.now = next.t
		e.nfired++
		fn, p, seq, k := next.fn, next.p, next.pseq, next.k
		if !next.owned {
			e.release(next)
		}
		if p != nil {
			e.wake(p, seq, k)
		} else {
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

// LiveProcs returns the number of processes that have been started and have
// not yet finished or been killed.
func (e *Env) LiveProcs() int { return e.nprocs }

// switchTo transfers control to p, delivering wake kind k, and returns when p
// parks again or exits. It must only be called from scheduler context.
func (e *Env) switchTo(p *Proc, k wakeKind) {
	prev := e.cur
	e.cur = p
	p.wakeK = k
	p.next()
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
// this from process context, where a direct switchTo would run p nested
// inside the calling process, out of event-queue order.
func (e *Env) wakeLater(p *Proc, seq uint64, k wakeKind) {
	ev := e.alloc()
	ev.p, ev.pseq, ev.k = p, seq, k
	e.enqueue(ev, e.now)
}

// event is one queue entry: a callback, or — when p is set — a direct wake
// of p's wait pseq with kind k, which dispatches without a closure.
type event struct {
	t    time.Duration
	seq  uint64
	fn   func()
	p    *Proc
	pseq uint64
	pos  int32 // heap slot + 1; 0 when not in the heap
	k    wakeKind
	// owned marks a Timer's event: never recycled, so its owner may keep
	// re-arming and stopping it.
	owned bool
}

// Timer is an owned, re-armable deadline: one queue entry that its owner
// arms, re-arms and stops for as long as it lives. Re-arming moves the
// entry in place and stopping removes it from the heap, both O(log n),
// leaving no tombstone; because the entry is never recycled, a Stop after
// the timer fired, or with nothing armed, changes nothing. Bind it once with
// Init; the zero Timer is not usable.
type Timer struct {
	env *Env
	ev  event
}

// Init binds the timer to e and to fn, which runs in scheduler context each
// time the timer fires.
func (t *Timer) Init(e *Env, fn func()) {
	t.env, t.ev = e, event{fn: fn, owned: true}
}

// Arm schedules the timer to fire once at Now()+delay, replacing any
// pending deadline. It takes the next sequence number exactly as a Schedule
// at this point would, so it orders among same-instant events the same way;
// a negative delay is clamped as in Schedule.
func (t *Timer) Arm(delay time.Duration) { t.env.arm(&t.ev, t.env.now+t.env.clamp(delay)) }

// Stop cancels the pending deadline, if any.
func (t *Timer) Stop() { t.env.stop(&t.ev) }

// String implements fmt.Stringer for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now=%v queued=%d procs=%d}", e.now, e.pending(), e.nprocs)
}
