package sim

import (
	"testing"
	"time"
)

func TestCompletionReleasesAllWaiters(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			c.Await(p)
			done = append(done, p.Now())
		})
	}
	e.Go("completer", func(p *Proc) {
		p.Sleep(50 * time.Millisecond)
		c.Complete()
	})
	e.Run()
	if len(done) != 3 {
		t.Fatalf("%d waiters released, want 3", len(done))
	}
	for _, d := range done {
		if d != 50*time.Millisecond {
			t.Fatalf("waiter released at %v, want 50ms", d)
		}
	}
}

func TestCompletionAwaitAfterComplete(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	c.Complete()
	c.Complete() // idempotent
	var at time.Duration = -1
	e.Go("late", func(p *Proc) {
		c.Await(p)
		at = p.Now()
	})
	e.Run()
	if at != 0 {
		t.Fatalf("late awaiter blocked; released at %v", at)
	}
}

func TestSignalBroadcastIsNotLatched(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	wakes := 0
	e.Go("waiter", func(p *Proc) {
		s.Wait(p)
		wakes++
		s.Wait(p) // must wait for a second broadcast
		wakes++
	})
	e.Go("caster", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Broadcast()
		p.Sleep(time.Millisecond)
		s.Broadcast()
	})
	e.Run()
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var got bool
	var at time.Duration
	e.Go("waiter", func(p *Proc) {
		got = s.WaitTimeout(p, 5*time.Millisecond)
		at = p.Now()
	})
	e.Run()
	if got {
		t.Fatal("WaitTimeout reported signal with no broadcast")
	}
	if at != 5*time.Millisecond {
		t.Fatalf("timeout at %v, want 5ms", at)
	}
	if len(s.ws) != 0 {
		t.Fatalf("stale waiter left on signal: %d", len(s.ws))
	}
}

func TestSignalTimeoutThenLaterBroadcastDoesNotDoubleWake(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	wakes := 0
	e.Go("waiter", func(p *Proc) {
		s.WaitTimeout(p, time.Millisecond)
		wakes++
		p.Sleep(time.Hour) // parked elsewhere when the broadcast fires
	})
	e.Go("caster", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		s.Broadcast()
	})
	e.Run()
	if wakes != 1 {
		t.Fatalf("wakes = %d, want 1", wakes)
	}
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	e := NewEnv()
	m := NewMutex(e)
	var order []string
	work := func(name string, startDelay time.Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(startDelay)
			m.Lock(p)
			order = append(order, name)
			p.Sleep(10 * time.Millisecond)
			m.Unlock(p)
		})
	}
	work("a", 0)
	work("b", time.Millisecond)
	work("c", 2*time.Millisecond)
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want FIFO %v", order, want)
		}
	}
	if m.owner != nil {
		t.Fatal("mutex still locked after Run")
	}
	if m.Holds != 3 {
		t.Fatalf("Holds = %d, want 3", m.Holds)
	}
	// a holds 0-10ms; b waits 1-10 (9ms); c waits 2-20 (18ms).
	if m.WaitTime != 27*time.Millisecond {
		t.Fatalf("WaitTime = %v, want 27ms", m.WaitTime)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	e := NewEnv()
	m := NewMutex(e)
	e.Go("a", func(p *Proc) { m.Lock(p); p.Sleep(time.Second); m.Unlock(p) })
	e.Go("b", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Unlock by non-owner did not panic")
			}
		}()
		m.Unlock(p)
	})
	e.Run()
}

func TestMutexKilledWaiterReleases(t *testing.T) {
	e := NewEnv()
	m := NewMutex(e)
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * time.Millisecond)
		m.Unlock(p)
	})
	victim := e.Go("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p)
		t.Error("victim acquired the lock")
	})
	gotLock := false
	e.Go("survivor", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		m.Lock(p)
		gotLock = true
		m.Unlock(p)
	})
	e.Go("killer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		victim.Kill()
	})
	e.Run()
	if !gotLock {
		t.Fatal("survivor never got the lock after victim was killed")
	}
	if m.owner != nil {
		t.Fatal("mutex leaked")
	}
}

func TestBarrierReleasesTogetherAndCycles(t *testing.T) {
	e := NewEnv()
	b := NewBarrier(e, 3)
	var releases []time.Duration
	for i := 0; i < 3; i++ {
		delay := time.Duration(i+1) * 10 * time.Millisecond
		e.Go("r", func(p *Proc) {
			for cycle := 0; cycle < 2; cycle++ {
				p.Sleep(delay)
				b.Await(p)
				releases = append(releases, p.Now())
			}
		})
	}
	e.Run()
	if len(releases) != 6 {
		t.Fatalf("%d releases, want 6", len(releases))
	}
	for _, r := range releases[:3] {
		if r != 30*time.Millisecond {
			t.Fatalf("cycle 1 release at %v, want 30ms", r)
		}
	}
	for _, r := range releases[3:] {
		if r != 60*time.Millisecond {
			t.Fatalf("cycle 2 release at %v, want 60ms", r)
		}
	}
	if b.Cycles != 2 {
		t.Fatalf("Cycles = %d, want 2", b.Cycles)
	}
}

func TestBarrierKilledPartyRetractsArrival(t *testing.T) {
	e := NewEnv()
	b := NewBarrier(e, 2)
	victim := e.Go("victim", func(p *Proc) { b.Await(p) })
	e.Go("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		victim.Kill()
	})
	released := false
	e.Go("pairA", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		b.Await(p)
		released = true
	})
	e.Go("pairB", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		b.Await(p)
	})
	e.Run()
	if !released {
		t.Fatal("barrier stuck after a party was killed")
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i * 10)
		}
	})
	e.Run()
	want := []int{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put(7)
	if v, ok := q.TryGet(); !ok || v != 7 {
		t.Fatalf("TryGet = (%d,%v), want (7,true)", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}
