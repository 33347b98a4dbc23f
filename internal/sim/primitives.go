package sim

import "time"

// ---------------------------------------------------------------------------
// Completion — a one-shot latch.

// Completion is a one-shot latch: processes Await it, and a single Complete
// (from process or scheduler context) releases all current and future
// awaiters. The zero value is not usable; create one with NewCompletion, or
// bind an embedded one with Reset.
type Completion struct {
	env  *Env
	done bool
	ws   waitq
}

// NewCompletion returns an incomplete latch bound to e.
func NewCompletion(e *Env) *Completion { return &Completion{env: e} }

// Reset binds c to e and makes it incomplete again, keeping its waiter
// list's storage: an owner that pools latches calls it before each reuse.
// c must have no waiters.
func (c *Completion) Reset(e *Env) { c.env, c.done, c.ws = e, false, c.ws[:0] }

// Completed reports whether Complete has been called.
func (c *Completion) Completed() bool { return c.done }

// Complete releases all awaiters. Subsequent Await calls return immediately.
// Calling Complete twice is a no-op.
func (c *Completion) Complete() {
	if c.done {
		return
	}
	c.done = true
	c.ws.wakeAll(c.env)
}

// Await blocks p until the latch completes.
func (c *Completion) Await(p *Proc) {
	if !c.done {
		p.wait(&c.ws, -1)
	}
}

// ---------------------------------------------------------------------------
// Signal — a reusable broadcast condition.

// Signal is a reusable broadcast: Wait parks until the next Broadcast. Unlike
// Completion it does not latch — waiters arriving after a Broadcast wait for
// the following one.
type Signal struct {
	env *Env
	ws  waitq
}

// NewSignal returns a Signal bound to e.
func NewSignal(e *Env) *Signal { return &Signal{env: e} }

// Broadcast wakes every process currently waiting.
func (s *Signal) Broadcast() { s.ws.wakeAll(s.env) }

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) { p.wait(&s.ws, -1) }

// WaitTimeout parks p until the next Broadcast or until d elapses, reporting
// whether a Broadcast arrived. Its one caller is the remote helper, whose
// scan tick still polls; a daemon that waits for work parks on Wait and is
// broadcast to on every change, and make lint fails on a new caller.
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	return p.wait(&s.ws, d) == wakeSignal
}

// ---------------------------------------------------------------------------
// Mutex — FIFO mutual exclusion with direct handoff.

// Mutex provides FIFO mutual exclusion between processes. Unlock hands the
// lock directly to the longest-waiting process, so no barging is possible.
// A process killed while queued leaves the queue; one killed just after being
// handed the lock passes it on.
type Mutex struct {
	env   *Env
	owner *Proc
	q     waitq
	// holds and waitTime feed contention accounting (e.g. the ramdisk
	// baseline's kernel-lock statistics).
	Holds    int64
	WaitTime time.Duration
}

// NewMutex returns an unlocked mutex bound to e.
func NewMutex(e *Env) *Mutex { return &Mutex{env: e} }

// Lock blocks p until it owns the mutex.
func (m *Mutex) Lock(p *Proc) {
	m.Holds++
	if m.owner == nil {
		m.owner = p
		return
	}
	start := m.env.now
	defer func() {
		m.WaitTime += m.env.now - start
		if p.killed && m.owner == p {
			m.handoff() // killed after the handoff, before resuming
		}
	}()
	p.wait(&m.q, -1)
}

// Unlock releases the mutex, handing it to the next queued process if any.
// It panics if p is not the owner.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.name)
	}
	m.handoff()
}

func (m *Mutex) handoff() { m.owner = m.q.wakeOne(m.env) }

// ---------------------------------------------------------------------------
// Barrier — cyclic rendezvous for n parties.

// Barrier is a cyclic barrier for a fixed number of parties, used to model
// coordinated (all-ranks) checkpoint entry. The last arriving process
// releases the rest and the barrier resets for the next cycle.
type Barrier struct {
	env     *Env
	parties int
	arrived int
	gen     uint64
	ws      waitq
	// Cycles counts completed generations.
	Cycles int64
}

// NewBarrier returns a barrier for parties processes. parties must be >= 1.
func NewBarrier(e *Env, parties int) *Barrier {
	if parties < 1 {
		panic("sim: barrier parties must be >= 1")
	}
	return &Barrier{env: e, parties: parties}
}

// Await blocks p until all parties of the current generation have arrived.
func (b *Barrier) Await(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.Cycles++
		b.ws.wakeAll(b.env)
		return
	}
	gen := b.gen
	defer func() {
		if p.killed && b.gen == gen {
			b.arrived-- // killed before the release: retract the arrival
		}
	}()
	p.wait(&b.ws, -1)
}

// ---------------------------------------------------------------------------
// Queue — an unbounded FIFO mailbox.

// Queue is an unbounded FIFO mailbox carrying values of type T between
// processes. Put never blocks; Get blocks until a value is available.
type Queue[T any] struct {
	env   *Env
	items []T
	ws    waitq
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{env: e} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v and wakes one waiting consumer, if any. Callable from
// process or scheduler context.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	q.ws.wakeOne(q.env)
}

// TryGet pops the head item if one is buffered.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Get blocks p until an item is available and pops it.
func (q *Queue[T]) Get(p *Proc) T {
	defer func() {
		if p.killed && len(q.items) > 0 {
			q.ws.wakeOne(q.env) // killed after Put woke it: pass the wake on
		}
	}()
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		p.wait(&q.ws, -1)
	}
}
