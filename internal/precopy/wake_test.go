package precopy

import (
	"testing"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// TestWorkerWakesForEveryCandidate holds the worker's wake rule: it parks
// with no timeout, so every change that gives nextCandidate a chunk must
// wake it. The app drives one rank through a learning interval, intervals
// past the threshold, first and repeated modifications, quiesces,
// checkpoints and a stop. Every millisecond of virtual time a checker looks
// at the engine from scheduler context; when a chunk is eligible and no copy
// is running, it looks again a nanosecond later, after every wake queued at
// that instant has dispatched. A worker still parked then was never woken.
func TestWorkerWakesForEveryCandidate(t *testing.T) {
	for _, scheme := range []Scheme{CPC, DCPC, DCPCP} {
		t.Run(scheme.String(), func(t *testing.T) {
			e := sim.NewEnv()
			r := newRig(e)
			var eng *Engine
			var checks int
			var missed []time.Duration
			parkedOnWork := func() bool {
				return !eng.stopped && !eng.copying && eng.nextCandidate() != nil
			}
			var check func()
			check = func() {
				if eng != nil && eng.stopped {
					return
				}
				checks++
				if eng != nil && parkedOnWork() {
					e.Schedule(time.Nanosecond, func() {
						if parkedOnWork() {
							missed = append(missed, e.Now())
						}
					})
				}
				e.Schedule(time.Millisecond, check)
			}
			e.Schedule(0, check)
			e.Go("app", func(p *sim.Proc) {
				var cs [3]*core.Chunk
				for i, name := range []string{"a", "b", "c"} {
					cs[i], _ = r.store.NVAlloc(p, name, 64*mem.MB, true)
				}
				// 192 MB at 1 GB/s a core: T_p is about 200 ms of each
				// 400 ms interval, so writes land on both sides of it.
				eng = New(r.store, Config{Scheme: scheme, BWPerCore: 1e9})
				for iter := 0; iter < 4; iter++ {
					eng.BeginInterval(p)
					for _, w := range []struct {
						chunk int
						after time.Duration
					}{
						{0, 10 * time.Millisecond},  // a: early, one episode
						{1, 40 * time.Millisecond},  // b: three episodes
						{1, 60 * time.Millisecond},  //
						{1, 190 * time.Millisecond}, // b: last episode past T_p
						{2, 50 * time.Millisecond},  // c: first touch past T_p
						{0, 30 * time.Millisecond},  // a: re-dirtied late
					} {
						p.Sleep(w.after)
						if err := cs[w.chunk].WriteAll(p); err != nil {
							t.Error(err)
						}
					}
					p.Sleep(20 * time.Millisecond)
					if iter == 2 {
						// A quiesce without a checkpoint: b, written while
						// quiesced, is eligible (under CPC) only once the
						// next interval lifts the quiesce.
						eng.Quiesce(p)
						if err := cs[1].WriteAll(p); err != nil {
							t.Error(err)
						}
						p.Sleep(50 * time.Millisecond)
						continue
					}
					eng.Quiesce(p)
					ckStart := p.Now()
					r.store.ChkptAll(p)
					eng.OnCheckpoint(ckStart)
				}
				eng.BeginInterval(p)
				cs[2].WriteAll(p)
				p.Sleep(300 * time.Millisecond)
				eng.Stop()
			})
			e.Run()
			if len(missed) > 0 {
				t.Errorf("worker parked on an eligible chunk with no wake queued at %d instants, first at %v",
					len(missed), missed[0])
			}
			if checks < 1000 {
				t.Errorf("checker ran %d times, want one per ms of a run over 1.5 s", checks)
			}
			if n := eng.Counters.Get("precopy_copies"); n == 0 {
				t.Error("the engine pre-copied nothing: the test drove no copies to check")
			}
		})
	}
}
