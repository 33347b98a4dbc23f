package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(20*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 2) }) // same instant: FIFO
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("Now() = %v, want 20ms", e.Now())
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEnv()
	fired := time.Duration(-1)
	e.Schedule(5*time.Millisecond, func() {
		e.Schedule(-3*time.Millisecond, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 5*time.Millisecond {
		t.Fatalf("negative-delay event fired at %v, want 5ms", fired)
	}
}

func TestAtInThePastFiresNow(t *testing.T) {
	e := NewEnv()
	fired := time.Duration(-1)
	e.Schedule(10*time.Millisecond, func() {
		e.At(2*time.Millisecond, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want 10ms", fired)
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEnv()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEnv()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEnv()
	e.RunUntil(time.Minute)
	if e.Now() != time.Minute {
		t.Fatalf("Now() = %v, want 1m", e.Now())
	}
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv()
	var end time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(40 * time.Millisecond)
		p.Sleep(2 * time.Millisecond)
		end = p.Now()
	})
	e.Run()
	if end != 42*time.Millisecond {
		t.Fatalf("proc ended at %v, want 42ms", end)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() string {
		e := NewEnv()
		out := ""
		for i := 0; i < 4; i++ {
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(i+1) * time.Millisecond)
					out += fmt.Sprintf("%d", i)
				}
			})
		}
		e.Run()
		return out
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d produced %q, first run produced %q", i, got, first)
		}
	}
}

// TestProcPanicPropagates: a process panic surfaces from Run with its
// original value, whether the process panics on its first dispatch or when
// resumed from the event queue, and the process is no longer counted live.
func TestProcPanicPropagates(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(*Proc)
	}{
		{"first-dispatch", func(p *Proc) { panic("boom") }},
		{"after-park", func(p *Proc) { p.Sleep(time.Millisecond); panic("boom") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			e.Go("bad", tc.body)
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want boom", r)
				}
				if n := e.LiveProcs(); n != 0 {
					t.Fatalf("LiveProcs = %d after the panic, want 0", n)
				}
			}()
			e.Run()
			t.Fatal("Run returned without panicking")
		})
	}
}

// TestRunLeavesNoGoroutines: once Run drains, no process is left suspended
// on a host goroutine, however it ended.
func TestRunLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	e := NewEnv()
	e.Go("finished", func(p *Proc) { p.Sleep(time.Millisecond) })
	never := NewSignal(e)
	victim := e.Go("killed", func(p *Proc) { never.Wait(p) })
	e.Go("killer", func(p *Proc) { p.Sleep(time.Second); victim.Kill() })
	e.Go("never", func(p *Proc) {}).Kill()
	e.Go("suicidal", func(p *Proc) { p.Sleep(time.Millisecond); p.KillSelf() })
	e.Run()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Run, want 0", n)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("NumGoroutine = %d after Run, want at most %d", n, start)
	}
}

func TestKillUnwindsParkedProc(t *testing.T) {
	e := NewEnv()
	cleaned := false
	victim := e.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
		t.Error("victim survived its kill")
	})
	e.Go("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		victim.Kill()
	})
	e.Run()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if !victim.Done() || !victim.Killed() {
		t.Fatalf("victim state: done=%v killed=%v", victim.Done(), victim.Killed())
	}
	if e.Now() >= time.Hour {
		t.Fatalf("kill did not cancel the sleep; Now()=%v", e.Now())
	}
}

func TestKillBeforeStart(t *testing.T) {
	e := NewEnv()
	ran := false
	p := e.Go("never", func(p *Proc) { ran = true })
	p.Kill()
	e.Run()
	if ran {
		t.Fatal("killed-before-start process ran")
	}
	if !p.Done() {
		t.Fatal("killed-before-start process not marked done")
	}
}

func TestKillSelf(t *testing.T) {
	e := NewEnv()
	after := false
	p := e.Go("suicidal", func(p *Proc) {
		p.KillSelf()
		after = true
	})
	e.Run()
	if after {
		t.Fatal("code after KillSelf ran")
	}
	if !p.Done() || !p.Killed() {
		t.Fatal("KillSelf did not finish the process")
	}
}

func TestJoinWaitsForExit(t *testing.T) {
	e := NewEnv()
	worker := e.Go("worker", func(p *Proc) { p.Sleep(30 * time.Millisecond) })
	var joinedAt time.Duration
	e.Go("joiner", func(p *Proc) {
		p.Join(worker)
		joinedAt = p.Now()
	})
	e.Run()
	if joinedAt != 30*time.Millisecond {
		t.Fatalf("join returned at %v, want 30ms", joinedAt)
	}
}

func TestJoinDoneProcReturnsImmediately(t *testing.T) {
	e := NewEnv()
	worker := e.Go("worker", func(p *Proc) {})
	var joinedAt time.Duration = -1
	e.Go("joiner", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Join(worker)
		joinedAt = p.Now()
	})
	e.Run()
	if joinedAt != time.Millisecond {
		t.Fatalf("join of done proc returned at %v, want 1ms", joinedAt)
	}
}

func TestJoinKilledProc(t *testing.T) {
	e := NewEnv()
	worker := e.Go("worker", func(p *Proc) { p.Sleep(time.Hour) })
	var joinedAt time.Duration = -1
	e.Go("joiner", func(p *Proc) { p.Join(worker); joinedAt = p.Now() })
	e.Go("killer", func(p *Proc) { p.Sleep(time.Second); worker.Kill() })
	e.Run()
	if joinedAt != time.Second {
		t.Fatalf("join of killed proc returned at %v, want 1s", joinedAt)
	}
}

func TestLiveProcsAccounting(t *testing.T) {
	e := NewEnv()
	if e.LiveProcs() != 1-1 {
		t.Fatalf("LiveProcs = %d at start", e.LiveProcs())
	}
	e.Go("a", func(p *Proc) { p.Sleep(time.Second) })
	e.Go("b", func(p *Proc) { p.Sleep(2 * time.Second) })
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d after spawn, want 2", e.LiveProcs())
	}
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Run, want 0", e.LiveProcs())
	}
}

func TestYieldRunsOtherEventsAtSameInstant(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) { order = append(order, "b") })
	e.Run()
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilResumesProcsMidSleep(t *testing.T) {
	e := NewEnv()
	var end time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Second)
		end = p.Now()
	})
	e.RunUntil(3 * time.Second)
	if e.Now() != 3*time.Second || end != 0 {
		t.Fatalf("mid-run state: now=%v end=%v", e.Now(), end)
	}
	e.Run() // picks the sleeper back up
	if end != 10*time.Second {
		t.Fatalf("sleeper ended at %v, want 10s", end)
	}
}

func TestKillDuringBarrierReleaseWave(t *testing.T) {
	// A party killed at the same instant the barrier releases must not
	// corrupt the release or wedge the other parties.
	e := NewEnv()
	b := NewBarrier(e, 3)
	released := 0
	var victim *Proc
	for i := 0; i < 3; i++ {
		p := e.Go("party", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			b.Await(p)
			released++
			p.Sleep(time.Hour)
		})
		if i == 0 {
			victim = p
		}
	}
	e.Go("killer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // the instant the last party arrives
		victim.Kill()
	})
	e.RunUntil(time.Second)
	if released < 2 {
		t.Fatalf("released = %d, want at least the two survivors", released)
	}
}

func TestDoubleKillIsIdempotent(t *testing.T) {
	e := NewEnv()
	p := e.Go("victim", func(p *Proc) { p.Sleep(time.Hour) })
	e.Go("killer", func(q *Proc) {
		q.Sleep(time.Millisecond)
		p.Kill()
		p.Kill() // second kill: no-op
	})
	e.Run()
	if !p.Done() {
		t.Fatal("victim not done")
	}
}

func TestCompletionCompleteFromSchedulerContext(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	var at time.Duration
	e.Go("waiter", func(p *Proc) {
		c.Await(p)
		at = p.Now()
	})
	e.Schedule(7*time.Millisecond, c.Complete) // scheduler-context completion
	e.Run()
	if at != 7*time.Millisecond {
		t.Fatalf("released at %v, want 7ms", at)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEnv()
	var depth3 time.Duration
	e.Go("outer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Env().Go("mid", func(p *Proc) {
			p.Sleep(time.Millisecond)
			p.Env().Go("inner", func(p *Proc) {
				p.Sleep(time.Millisecond)
				depth3 = p.Now()
			})
		})
	})
	e.Run()
	if depth3 != 3*time.Millisecond {
		t.Fatalf("inner proc finished at %v, want 3ms", depth3)
	}
}
