// go1.23 for iter.Pull: go.mod stays at go 1.22 until bench/e2e/go.mod rises with it.
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"time"
)

// wakeKind tells a parked process why it is being resumed.
type wakeKind int

const (
	wakeRun    wakeKind = iota // initial dispatch
	wakeTimer                  // a Sleep or timeout expired
	wakeSignal                 // a synchronization primitive fired
	wakeKill                   // the process is being killed
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

// killedPanic is the sentinel used to unwind a killed process. Primitive
// wait functions install deferred cleanup so that an unwinding process
// removes itself from wait queues and releases held resources.
type killedPanic struct{ p *Proc }

func (k killedPanic) String() string { return "sim: process " + k.p.name + " killed" }

// Proc is a simulated process: a coroutine (iter.Pull) that the scheduler
// resumes with next and that suspends itself with yield at every park. All
// blocking methods (Sleep, primitive waits, resource transfers) consume
// virtual time only; the process is suspended while other events run.
// Methods on Proc must only be called from the process's own body unless
// documented otherwise.
type Proc struct {
	env     *Env
	name    string
	next    func() (struct{}, bool) // resumes the body until it parks or exits
	yield   func(struct{}) bool     // suspends the body back to next's caller
	wakeK   wakeKind                // why the last switchTo resumed the body
	state   procState
	waitSeq uint64
	killed  bool
	exitWs  []waiter // processes joined on this one
}

// waiter pairs a parked process with the wait sequence that identifies the
// park, so stale wakes can be discarded.
type waiter struct {
	p   *Proc
	seq uint64
}

// Go spawns a new simulated process running fn. The process starts at the
// current virtual time (after already-queued events at this instant). Go may
// be called from scheduler or process context.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{env: e, name: name}
	e.nprocs++
	e.Schedule(0, func() { e.startProc(p, fn) })
	return p
}

func (e *Env) startProc(p *Proc, fn func(*Proc)) {
	if p.killed {
		// Killed before it ever ran: finish it without executing fn.
		p.finish()
		e.nprocs--
		return
	}
	// The body recovers every panic and returns normally, so next never
	// re-raises one: a kill ends here, and any other panic waits in e.fatal
	// for Run to re-raise on the scheduler's stack.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					p.env.fatal = r
				}
			}
			p.finish()
			p.env.nprocs--
		}()
		fn(p)
	})
	p.state = procRunning
	e.switchTo(p, wakeRun)
}

// finish marks the process done and wakes any joiners. Runs in the process's
// coroutine just before it returns control to the scheduler.
func (p *Proc) finish() {
	p.state = procDone
	p.next, p.yield = nil, nil // never resumed again: let the coroutine's state go
	ws := p.exitWs
	p.exitWs = nil
	for _, w := range ws {
		p.env.wakeLater(w.p, w.seq, wakeSignal)
	}
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process has finished (normally or by kill).
// Callable from any simulation context.
func (p *Proc) Done() bool { return p.state == procDone }

// Killed reports whether Kill has been requested or delivered.
func (p *Proc) Killed() bool { return p.killed }

// Now returns the current virtual time (shorthand for p.Env().Now()).
func (p *Proc) Now() time.Duration { return p.env.now }

// prepark reserves a wait slot and returns its identifying sequence number.
// The caller must enqueue a waiter carrying this sequence (if a primitive
// will wake it) and then call park without yielding in between.
func (p *Proc) prepark() uint64 {
	p.waitSeq++
	return p.waitSeq
}

// park blocks the process until a matching wake arrives, returning the wake
// kind. A kill delivered at any park unwinds the process via panic; wait
// primitives use deferred cleanup to stay consistent under that unwind.
func (p *Proc) park() wakeKind {
	p.state = procParked
	p.yield(struct{}{})
	k := p.wakeK
	if k == wakeKill || p.killed {
		panic(killedPanic{p})
	}
	return k
}

// Sleep advances the process by d of virtual time. A non-positive d yields
// the processor for the current instant (other due events run) and returns.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	seq := p.prepark()
	ev, gen := p.env.scheduleWake(d, p, seq, wakeTimer)
	defer p.env.cancelWake(ev, gen) // drop the stale timer if a kill unwinds the sleep
	p.park()
}

// Kill requests asynchronous termination of the process. The process unwinds
// (running deferred cleanup inside primitives) the next time it is parked, or
// immediately at its next park if it is currently running. Killing a done
// process is a no-op. Kill must not be called on the currently running
// process; use KillSelf for that.
func (p *Proc) Kill() {
	if p.state == procDone || p.killed {
		return
	}
	p.killed = true
	if p.env.cur == p {
		panic("sim: Kill called on the running process; use KillSelf")
	}
	p.env.Schedule(0, func() {
		if p.state == procParked {
			p.env.wake(p, p.waitSeq, wakeKill)
		}
		// If it is procNew the startProc event will observe p.killed.
	})
}

// KillSelf terminates the calling process immediately, unwinding through any
// deferred cleanup.
func (p *Proc) KillSelf() {
	p.killed = true
	panic(killedPanic{p})
}

// Join blocks until q finishes. Joining an already-done process returns
// immediately. A process must not join itself.
func (p *Proc) Join(q *Proc) {
	if q.state == procDone {
		return
	}
	if q == p {
		panic("sim: process joining itself")
	}
	seq := p.prepark()
	q.exitWs = append(q.exitWs, waiter{p, seq})
	p.park()
}

// String implements fmt.Stringer.
func (p *Proc) String() string {
	return fmt.Sprintf("sim.Proc{%s state=%d}", p.name, p.state)
}
