package sim_test

import (
	"testing"
	"time"

	"nvmcp/internal/resource"
	"nvmcp/internal/sim"
)

// TestSteadyStateAllocations pins the kernel's zero-allocation contract:
// once an Env's free list, a Proc's timer and a Pipe's flow pool have grown
// to the workload's peak, dispatch, parking and fluid transfers allocate
// nothing per operation.
func TestSteadyStateAllocations(t *testing.T) {
	const us = time.Microsecond
	// steady warms a long-running workload up, then measures one slice of
	// virtual time per run; stop ends the workload's processes afterwards.
	steady := func(t *testing.T, e *sim.Env, slice time.Duration, stop *bool) {
		t.Helper()
		e.RunUntil(e.Now() + 100*slice)
		if a := testing.AllocsPerRun(200, func() { e.RunUntil(e.Now() + slice) }); a != 0 {
			t.Errorf("%v allocs per %v of virtual time, want 0", a, slice)
		}
		*stop = true
		e.Run()
		if e.LiveProcs() != 0 {
			t.Fatalf("%d processes still live", e.LiveProcs())
		}
	}
	t.Run("Schedule+dispatch", func(t *testing.T) {
		e := sim.NewEnv()
		n := 0
		tick := func() { n++ }
		run := func() {
			for i := 0; i < 64; i++ {
				e.Schedule(time.Duration(i%8)*us, tick)
			}
			e.Schedule(0, tick)
			e.Run()
		}
		run()
		if a := testing.AllocsPerRun(200, run); a != 0 {
			t.Errorf("%v allocs per 65 events, want 0", a)
		}
	})
	t.Run("Proc.Sleep", func(t *testing.T) {
		e := sim.NewEnv()
		stop := false
		e.Go("sleeper", func(p *sim.Proc) {
			for !stop {
				p.Sleep(us)
				p.Sleep(0)
			}
		})
		steady(t, e, us, &stop)
	})
	t.Run("Signal.WaitTimeout/Broadcast", func(t *testing.T) {
		e := sim.NewEnv()
		s := sim.NewSignal(e)
		stop := false
		for i := 0; i < 3; i++ {
			e.Go("waiter", func(p *sim.Proc) {
				for !stop {
					s.WaitTimeout(p, time.Duration(2+i)*us) // some broadcast, some time out
				}
			})
		}
		e.Go("broadcaster", func(p *sim.Proc) {
			for !stop {
				p.Sleep(3 * us)
				s.Broadcast()
			}
		})
		steady(t, e, 6*us, &stop)
	})
	t.Run("Pipe.Transfer/12-flows", func(t *testing.T) {
		e := sim.NewEnv()
		pipe := resource.NewPipe(e, "nvm", 1e9, resource.FlatScaling())
		stop := false
		for i := 0; i < 12; i++ {
			e.Go("flow", func(p *sim.Proc) {
				for !stop {
					pipe.Transfer(p, 64<<10+int64(i)<<10)
				}
			})
		}
		steady(t, e, time.Millisecond, &stop)
	})
}
