package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw event scheduling/dispatch rate —
// the floor under every simulation in the repository.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEnv()
	count := 0
	var self func()
	self = func() {
		count++
		if count < b.N {
			e.Schedule(time.Microsecond, self)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, self)
	e.Run()
}

// BenchmarkProcSwitch measures coroutine park/wake round trips.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEnv()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkMutexHandoff measures contended FIFO lock handoffs between two
// processes.
func BenchmarkMutexHandoff(b *testing.B) {
	e := NewEnv()
	m := NewMutex(e)
	worker := func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			m.Lock(p)
			p.Sleep(time.Nanosecond)
			m.Unlock(p)
		}
	}
	e.Go("a", worker)
	e.Go("b", worker)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEqualTimeFanout measures the queue under the shape that made the
// old two-band queue linear: a 10k-event run at one instant, then a chain of
// earlier events, each inserting one more event into that run as it fires.
// One op is one round of 30k events.
func BenchmarkEqualTimeFanout(b *testing.B) {
	const run = 10_000
	e := NewEnv()
	nop := func() {}
	var at time.Duration
	left := 0
	var chain func()
	chain = func() {
		e.At(at, nop)
		if left--; left > 0 {
			e.Schedule(50*time.Nanosecond, chain)
		}
	}
	round := func() {
		at = e.Now() + time.Millisecond
		for i := 0; i < run; i++ {
			e.At(at, nop)
		}
		left = run
		e.Schedule(50*time.Nanosecond, chain)
		e.Run()
	}
	round() // grow the free list and the heap to the round's peak
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
