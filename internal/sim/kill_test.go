package sim

import (
	"testing"
	"time"
)

// killCase is one blocking call under TestKillAtEveryWait. The victim parks
// at 0; at 1ms the killer runs before (if set) and kills it; at 2ms a probe
// reads list; the fresh process makes its own call at freshAt; at 5ms a
// server runs serve (if set). The fresh process must return at served.
type killCase struct {
	park    func(p *Proc) // the victim's blocking call
	before  func(k *Proc) // wakes the victim just before the kill; nil kills it while parked
	fresh   func(p *Proc) // the fresh process's call on the same primitive
	freshAt time.Duration
	serve   func(s *Proc) // releases the fresh process at 5ms; nil if it needs no release
	served  time.Duration
	list    func() waitq // the primitive's waiter list
	run     func(e *Env) // drives the run; nil means e.Run
}

// TestKillAtEveryWait kills a process at each blocking call of the kernel,
// both while it is listed and (where a waker hands it something) in the
// instant between its wake and its resumption. After every kill the run
// must end with no live process, the primitive must list no waiter (and
// never the dead one), a fresh process must still be served on time, and no
// stale wake may be dispatched: an abandoned timer would carry the clock
// past the 5ms end of the run.
func TestKillAtEveryWait(t *testing.T) {
	const ms = time.Millisecond
	rows := []struct {
		name  string
		build func(e *Env) killCase
	}{
		{"Sleep", func(e *Env) killCase {
			return killCase{
				park:    func(p *Proc) { p.Sleep(time.Hour) },
				fresh:   func(p *Proc) { p.Sleep(2 * ms) },
				freshAt: 3 * ms, served: 5 * ms,
				list: func() waitq { return nil },
			}
		}},
		{"Join", func(e *Env) killCase {
			target := e.Go("target", func(p *Proc) { p.Sleep(5 * ms) })
			return killCase{
				park:    func(p *Proc) { p.Join(target) },
				fresh:   func(p *Proc) { p.Join(target) },
				freshAt: 3 * ms, served: 5 * ms,
				list: func() waitq { return target.exitWs },
			}
		}},
		{"Completion.Await", func(e *Env) killCase {
			c := NewCompletion(e)
			return killCase{
				park:    c.Await,
				fresh:   c.Await,
				freshAt: 3 * ms, served: 5 * ms,
				serve: func(*Proc) { c.Complete() },
				list:  func() waitq { return c.ws },
			}
		}},
		{"Signal.Wait", func(e *Env) killCase {
			s := NewSignal(e)
			return killCase{
				park:    s.Wait,
				fresh:   s.Wait,
				freshAt: 3 * ms, served: 5 * ms,
				serve: func(*Proc) { s.Broadcast() },
				list:  func() waitq { return s.ws },
			}
		}},
		{"Signal.WaitTimeout", func(e *Env) killCase {
			s := NewSignal(e)
			return killCase{
				park: func(p *Proc) { s.WaitTimeout(p, time.Hour) },
				fresh: func(p *Proc) {
					if !s.WaitTimeout(p, time.Hour) {
						t.Error("fresh WaitTimeout timed out")
					}
				},
				freshAt: 3 * ms, served: 5 * ms,
				serve: func(*Proc) { s.Broadcast() },
				list:  func() waitq { return s.ws },
			}
		}},
		{"Mutex.Lock/queued", func(e *Env) killCase {
			m := NewMutex(e)
			holder := e.Go("holder", func(p *Proc) { m.Lock(p) })
			return killCase{
				park:    m.Lock,
				fresh:   func(p *Proc) { m.Lock(p); m.Unlock(p) },
				freshAt: 3 * ms, served: 5 * ms,
				serve: func(*Proc) { m.Unlock(holder) },
				list:  func() waitq { return m.q },
			}
		}},
		{"Mutex.Lock/handed", func(e *Env) killCase {
			m := NewMutex(e)
			holder := e.Go("holder", func(p *Proc) { m.Lock(p) })
			return killCase{
				park:    m.Lock,
				before:  func(*Proc) { m.Unlock(holder) },
				fresh:   func(p *Proc) { m.Lock(p); m.Unlock(p) },
				freshAt: 0, served: 1 * ms, // queued behind the victim
				list: func() waitq { return m.q },
			}
		}},
		{"Barrier.Await/queued", func(e *Env) killCase {
			b := NewBarrier(e, 2)
			return killCase{
				park:    b.Await,
				fresh:   b.Await,
				freshAt: 3 * ms, served: 5 * ms,
				serve: b.Await,
				list:  func() waitq { return b.ws },
			}
		}},
		{"Barrier.Await/release-wave", func(e *Env) killCase {
			b := NewBarrier(e, 2)
			return killCase{
				park:    b.Await,
				before:  b.Await, // the killer is the last arrival
				fresh:   b.Await,
				freshAt: 3 * ms, served: 5 * ms,
				serve: b.Await,
				list:  func() waitq { return b.ws },
			}
		}},
		{"Queue.Get/queued", func(e *Env) killCase {
			q := NewQueue[int](e)
			return killCase{
				park:    func(p *Proc) { q.Get(p) },
				fresh:   func(p *Proc) { q.Get(p) },
				freshAt: 3 * ms, served: 5 * ms,
				serve: func(*Proc) { q.Put(1) },
				list:  func() waitq { return q.ws },
			}
		}},
		{"Queue.Get/woken", func(e *Env) killCase {
			q := NewQueue[int](e)
			return killCase{
				park:    func(p *Proc) { q.Get(p) },
				before:  func(*Proc) { q.Put(1) },
				fresh:   func(p *Proc) { q.Get(p) },
				freshAt: 0, served: 1 * ms, // queued behind the victim
				list: func() waitq { return q.ws },
			}
		}},
		{"Gate.Await", func(e *Env) killCase {
			cb := NewCrossBarrier(NewShardGroup(e), []int{2})
			g := cb.Gate(0)
			return killCase{
				park:    g.Await,
				fresh:   g.Await,
				freshAt: 3 * ms, served: 5 * ms,
				serve: g.Await,
				list:  func() waitq { return g.ws },
				run: func(e *Env) {
					for e.Run(); cb.Full(); e.Run() {
						cb.Release()
					}
				},
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := NewEnv()
			c := row.build(e)
			victim := e.Go("victim", func(p *Proc) {
				c.park(p)
				t.Error("victim survived its kill")
			})
			e.Go("killer", func(k *Proc) {
				k.Sleep(ms)
				if c.before != nil {
					c.before(k)
				}
				victim.Kill()
			})
			e.Go("probe", func(p *Proc) {
				p.Sleep(2 * ms)
				for _, w := range c.list() {
					if w.p == victim {
						t.Error("the killed victim is still listed")
					}
				}
			})
			var servedAt []time.Duration
			e.Go("fresh", func(p *Proc) {
				p.Sleep(c.freshAt)
				c.fresh(p)
				servedAt = append(servedAt, p.Now())
			})
			e.Go("server", func(s *Proc) {
				s.Sleep(5 * ms)
				if c.serve != nil {
					c.serve(s)
				}
			})
			if c.run != nil {
				c.run(e)
			} else {
				e.Run()
			}
			if n := e.LiveProcs(); n != 0 {
				t.Errorf("LiveProcs = %d after Run, want 0", n)
			}
			if n := len(c.list()); n != 0 {
				t.Errorf("primitive lists %d waiters after Run, want 0", n)
			}
			if len(servedAt) != 1 || servedAt[0] != c.served {
				t.Errorf("fresh process served at %v, want once at %v", servedAt, c.served)
			}
			if e.Now() != 5*ms {
				t.Errorf("run ended at %v, want 5ms: a stale wake was dispatched", e.Now())
			}
			if !victim.Done() || !victim.killed {
				t.Errorf("victim done=%v killed=%v", victim.Done(), victim.killed)
			}
		})
	}
}
