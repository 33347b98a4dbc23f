// go1.23 for iter.Pull: go.mod stays at go 1.22 until bench/e2e/go.mod rises with it.
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"slices"
	"time"
)

// wakeKind tells a parked process why it is being resumed.
type wakeKind uint8

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

// killedPanic is the sentinel used to unwind a killed process. Proc.wait
// raises it after taking the process off its wait list; the three primitives
// that hand a process something on wake (Mutex, Barrier, Queue) defer a
// few-line unwind that gives it back.
type killedPanic struct{ p *Proc }

func (k killedPanic) String() string { return "sim: process " + k.p.name + " killed" }

// Proc is a simulated process: a coroutine (iter.Pull) that the scheduler
// resumes with next and that suspends itself with yield. Every blocking call
// (Sleep, Join, each primitive's wait, and resource transfers built on them)
// parks through the one wait method, so a kill delivered at any of them
// unwinds under the same rule. Blocking consumes virtual time only; the
// process is suspended while other events run. Methods on Proc must only be
// called from the process's own body unless documented otherwise.
type Proc struct {
	env     *Env
	name    string
	next    func() (struct{}, bool) // resumes the body until it parks or exits
	yield   func(struct{}) bool     // suspends the body back to next's caller
	wakeK   wakeKind                // why the last switchTo resumed the body
	state   procState
	waitSeq uint64
	killed  bool
	exitWs  waitq // processes joined on this one
	timer   event // owned wait timeout: wakes this process with wakeTimer
}

// waiter pairs a parked process with the wait sequence that identifies the
// park, so stale wakes can be discarded.
type waiter struct {
	p   *Proc
	seq uint64
}

// waitq is a FIFO of parked processes. Only Proc.wait adds to it; a waker
// takes its waiters off with wakeAll or wakeOne.
type waitq []waiter

// wakeAll wakes every listed process at the current instant, in arrival
// order, and empties the list, keeping its storage for the next waiters.
func (q *waitq) wakeAll(e *Env) {
	ws := *q
	for _, w := range ws {
		e.wakeLater(w.p, w.seq, wakeSignal)
	}
	clear(ws)
	*q = ws[:0]
}

// wakeOne wakes the longest-listed process at the current instant and
// returns it, or returns nil if the list is empty.
func (q *waitq) wakeOne(e *Env) *Proc {
	if len(*q) == 0 {
		return nil
	}
	w := (*q)[0]
	*q = slices.Delete(*q, 0, 1) // shift down: the list keeps its storage
	e.wakeLater(w.p, w.seq, wakeSignal)
	return w.p
}

// remove takes p off the list if it is still listed.
func (q *waitq) remove(p *Proc) {
	for i, w := range *q {
		if w.p == p {
			*q = slices.Delete(*q, i, i+1)
			return
		}
	}
}

// Go spawns a new simulated process running fn. The process starts at the
// current virtual time (after already-queued events at this instant). Go may
// be called from scheduler or process context.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.timer = event{p: p, k: wakeTimer, owned: true}
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
	p.exitWs.wakeAll(p.env)
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process has finished (normally or by kill).
// Callable from any simulation context.
func (p *Proc) Done() bool { return p.state == procDone }

// Now returns the current virtual time (shorthand for p.Env().Now()).
func (p *Proc) Now() time.Duration { return p.env.now }

// wait parks the process until a wake for this park arrives and returns its
// kind. If q is non-nil the process is listed on it; a timeout >= 0 also arms
// a timer that wakes it with wakeTimer. A process that leaves by the timer or
// a kill, rather than by the list's own wake, is taken off the list. A kill
// then unwinds the process with killedPanic, including one delivered after
// the list woke it but before it resumed.
func (p *Proc) wait(q *waitq, timeout time.Duration) wakeKind {
	p.waitSeq++
	if q != nil {
		*q = append(*q, waiter{p, p.waitSeq})
	}
	if timeout >= 0 {
		p.timer.pseq = p.waitSeq
		p.env.arm(&p.timer, p.env.now+timeout)
	}
	p.state = procParked
	p.yield(struct{}{})
	k := p.wakeK
	p.env.stop(&p.timer)
	if q != nil && k != wakeSignal {
		q.remove(p)
	}
	if k == wakeKill || p.killed {
		panic(killedPanic{p})
	}
	return k
}

// Sleep advances the process by d of virtual time. A non-positive d yields
// the processor for the current instant (other due events run) and returns.
func (p *Proc) Sleep(d time.Duration) { p.wait(nil, max(d, 0)) }

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
	p.wait(&q.exitWs, -1)
}

// String implements fmt.Stringer.
func (p *Proc) String() string {
	return fmt.Sprintf("sim.Proc{%s state=%d}", p.name, p.state)
}
