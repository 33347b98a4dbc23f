package sim

import "time"

// ---------------------------------------------------------------------------
// Completion — a one-shot latch.

// Completion is a one-shot latch: processes Await it, and a single Complete
// (from process or scheduler context) releases all current and future
// awaiters. The zero value is not usable; create with NewCompletion.
type Completion struct {
	env  *Env
	done bool
	ws   []waiter
}

// NewCompletion returns an incomplete latch bound to e.
func NewCompletion(e *Env) *Completion { return &Completion{env: e} }

// Completed reports whether Complete has been called.
func (c *Completion) Completed() bool { return c.done }

// Complete releases all awaiters. Subsequent Await calls return immediately.
// Calling Complete twice is a no-op.
func (c *Completion) Complete() {
	if c.done {
		return
	}
	c.done = true
	ws := c.ws
	c.ws = nil
	for _, w := range ws {
		c.env.wakeLater(w.p, w.seq, wakeSignal)
	}
}

// Await blocks p until the latch completes.
func (c *Completion) Await(p *Proc) {
	if c.done {
		return
	}
	seq := p.prepark()
	c.ws = append(c.ws, waiter{p, seq})
	defer c.removeWaiter(p, seq) // no-op if Complete already cleared the list
	p.park()
}

func (c *Completion) removeWaiter(p *Proc, seq uint64) {
	for i, w := range c.ws {
		if w.p == p && w.seq == seq {
			c.ws = append(c.ws[:i], c.ws[i+1:]...)
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Signal — a reusable broadcast condition.

// Signal is a reusable broadcast: Wait parks until the next Broadcast. Unlike
// Completion it does not latch — waiters arriving after a Broadcast wait for
// the following one.
type Signal struct {
	env *Env
	ws  []waiter
}

// NewSignal returns a Signal bound to e.
func NewSignal(e *Env) *Signal { return &Signal{env: e} }

// Waiters returns the number of processes currently parked on the signal.
func (s *Signal) Waiters() int { return len(s.ws) }

// Broadcast wakes every process currently waiting.
func (s *Signal) Broadcast() {
	ws := s.ws
	s.ws = nil
	for _, w := range ws {
		s.env.wakeLater(w.p, w.seq, wakeSignal)
	}
}

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	seq := p.prepark()
	s.ws = append(s.ws, waiter{p, seq})
	defer s.removeWaiter(p, seq)
	p.park()
}

// WaitTimeout parks p until the next Broadcast or until d elapses, reporting
// whether a Broadcast arrived.
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	seq := p.prepark()
	s.ws = append(s.ws, waiter{p, seq})
	defer s.removeWaiter(p, seq)
	timer, gen := s.env.scheduleWake(d, p, seq, wakeTimer)
	defer s.env.cancelWake(timer, gen)
	return p.park() == wakeSignal
}

func (s *Signal) removeWaiter(p *Proc, seq uint64) {
	for i, w := range s.ws {
		if w.p == p && w.seq == seq {
			s.ws = append(s.ws[:i], s.ws[i+1:]...)
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Mutex — FIFO mutual exclusion with direct handoff.

// Mutex provides FIFO mutual exclusion between processes. Unlock hands the
// lock directly to the longest-waiting process, so no barging is possible.
// A process killed while queued (or just after being handed the lock)
// releases cleanly via deferred cleanup.
type Mutex struct {
	env   *Env
	owner *Proc
	q     []waiter
	// holds and waitTime feed contention accounting (e.g. the ramdisk
	// baseline's kernel-lock statistics).
	Holds    int64
	WaitTime time.Duration
}

// NewMutex returns an unlocked mutex bound to e.
func NewMutex(e *Env) *Mutex { return &Mutex{env: e} }

// Locked reports whether some process holds the mutex.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Lock blocks p until it owns the mutex.
func (m *Mutex) Lock(p *Proc) {
	m.Holds++
	if m.owner == nil {
		m.owner = p
		return
	}
	start := m.env.now
	seq := p.prepark()
	m.q = append(m.q, waiter{p, seq})
	acquired := false
	defer func() {
		m.WaitTime += m.env.now - start
		if acquired {
			return
		}
		// Unwinding under kill: leave the queue, and if the lock was
		// already handed to us, pass it on.
		for i, w := range m.q {
			if w.p == p {
				m.q = append(m.q[:i], m.q[i+1:]...)
				break
			}
		}
		if m.owner == p {
			m.handoff()
		}
	}()
	p.park()
	acquired = true
}

// Unlock releases the mutex, handing it to the next queued process if any.
// It panics if p is not the owner.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.name)
	}
	m.handoff()
}

func (m *Mutex) handoff() {
	if len(m.q) == 0 {
		m.owner = nil
		return
	}
	next := m.q[0]
	m.q = m.q[1:]
	m.owner = next.p
	m.env.wakeLater(next.p, next.seq, wakeSignal)
}

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
	ws      []waiter
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

// Parties returns the configured party count.
func (b *Barrier) Parties() int { return b.parties }

// Arrived returns how many parties are waiting in the current generation.
func (b *Barrier) Arrived() int { return b.arrived }

// Await blocks p until all parties of the current generation have arrived.
func (b *Barrier) Await(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.Cycles++
		ws := b.ws
		b.ws = nil
		for _, w := range ws {
			b.env.wakeLater(w.p, w.seq, wakeSignal)
		}
		return
	}
	seq := p.prepark()
	b.ws = append(b.ws, waiter{p, seq})
	released := false
	defer func() {
		if released {
			return
		}
		// Kill unwind: retract our arrival so the cycle can still complete.
		b.arrived--
		for i, w := range b.ws {
			if w.p == p {
				b.ws = append(b.ws[:i], b.ws[i+1:]...)
				return
			}
		}
	}()
	p.park()
	released = true
}

// ---------------------------------------------------------------------------
// Queue — an unbounded FIFO mailbox.

// Queue is an unbounded FIFO mailbox carrying values of type T between
// processes. Put never blocks; Get blocks until a value is available.
type Queue[T any] struct {
	env   *Env
	items []T
	ws    []waiter
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{env: e} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v and wakes one waiting consumer, if any. Callable from
// process or scheduler context.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	if len(q.ws) > 0 {
		next := q.ws[0]
		q.ws = q.ws[1:]
		q.env.wakeLater(next.p, next.seq, wakeSignal)
	}
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
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		seq := p.prepark()
		q.ws = append(q.ws, waiter{p, seq})
		func() {
			defer q.removeWaiter(p, seq)
			p.park()
		}()
	}
}

func (q *Queue[T]) removeWaiter(p *Proc, seq uint64) {
	for i, w := range q.ws {
		if w.p == p && w.seq == seq {
			q.ws = append(q.ws[:i], q.ws[i+1:]...)
			return
		}
	}
}
