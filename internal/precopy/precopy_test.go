package precopy

import (
	"testing"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// rig wires a one-rank store with an engine under test.
type rig struct {
	env   *sim.Env
	k     *nvmkernel.Kernel
	store *core.Store
}

func newRig(e *sim.Env) *rig {
	k := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB))
	return &rig{env: e, k: k, store: core.NewStore(k.Attach("rank0"), core.Options{})}
}

func TestNoPreCopySchemeDoesNothing(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: NoPreCopy})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "a", 50*mem.MB, true)
		eng.BeginInterval(p)
		c.WriteAll(p)
		p.Sleep(time.Second)
	})
	e.Run()
	if got := r.store.Counters.Get("precopy_bytes"); got != 0 {
		t.Fatalf("NoPreCopy moved %d bytes", got)
	}
}

func TestCPCCopiesDirtyChunkInBackground(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: CPC})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "a", 100*mem.MB, true)
		// Write before arming the interval so the engine sees one clean
		// modification; a write racing an in-flight copy re-dirties the
		// chunk and legitimately costs a second copy.
		c.WriteAll(p)
		eng.BeginInterval(p)
		p.Sleep(2 * time.Second) // compute: engine copies in background
		eng.Quiesce(p)
		st := r.store.ChkptAll(p)
		if st.BytesCopied != 0 {
			t.Errorf("checkpoint still copied %d bytes after CPC pre-copy", st.BytesCopied)
		}
		if st.Committed != 1 {
			t.Errorf("committed = %d", st.Committed)
		}
		eng.Stop()
	})
	e.Run()
	if got := eng.Counters.Get("precopy_copies"); got != 1 {
		t.Fatalf("precopy_copies = %d, want 1", got)
	}
}

func TestCPCRecopiesHotChunk(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: CPC})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "hot", 100*mem.MB, true)
		eng.BeginInterval(p)
		for i := 0; i < 3; i++ {
			c.WriteAll(p)
			p.Sleep(time.Second)
		}
		eng.Quiesce(p)
		eng.Stop()
	})
	e.Run()
	// CPC pays for the hot chunk repeatedly — the cost DCPCP avoids.
	if got := eng.Counters.Get("precopy_copies"); got < 2 {
		t.Fatalf("precopy_copies = %d, want >= 2 for a hot chunk", got)
	}
}

func TestDCPCWaitsForLearningThenThreshold(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	// 100 MB at 1 GB/s -> T_c = 0.1s; with I = 2s, T_p ~ 1.9s.
	eng := New(r.store, Config{Scheme: DCPC, BWPerCore: 1e9})
	var firstIntervalCopies, secondIntervalEarlyCopies int64
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "a", 100*mem.MB, true)
		// Interval 1 (learning): no pre-copy expected.
		eng.BeginInterval(p)
		c.WriteAll(p)
		p.Sleep(2 * time.Second)
		firstIntervalCopies = eng.Counters.Get("precopy_copies")
		eng.Quiesce(p)
		ckStart := p.Now()
		r.store.ChkptAll(p)
		eng.OnCheckpoint(ckStart)

		// Interval 2: modification right away; engine must hold off until
		// the threshold.
		eng.BeginInterval(p)
		c.WriteAll(p)
		p.Sleep(eng.threshold / 2)
		secondIntervalEarlyCopies = eng.Counters.Get("precopy_copies")
		p.Sleep(2*time.Second - eng.threshold/2)
		eng.Quiesce(p)
		st := r.store.ChkptAll(p)
		if st.BytesCopied != 0 {
			t.Errorf("delayed pre-copy missed the chunk; checkpoint copied %d", st.BytesCopied)
		}
		eng.Stop()
	})
	e.Run()
	if firstIntervalCopies != 0 {
		t.Fatalf("learning interval did %d pre-copies, want 0", firstIntervalCopies)
	}
	if secondIntervalEarlyCopies != 0 {
		t.Fatalf("pre-copy ran before the threshold (%v)", eng.threshold)
	}
	if eng.threshold <= time.Second {
		t.Fatalf("threshold = %v, want ~1.9s", eng.threshold)
	}
}

func TestDCPCPLearnsPredictionTable(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: DCPCP, BWPerCore: 1e9})
	e.Go("app", func(p *sim.Proc) {
		c3, _ := r.store.NVAlloc(p, "c3", 10*mem.MB, true) // modified 3x/iter
		c1, _ := r.store.NVAlloc(p, "c1", 10*mem.MB, true) // modified 1x/iter
		eng.BeginInterval(p)
		for i := 0; i < 3; i++ {
			c3.WriteAll(p)
			p.Sleep(300 * time.Millisecond)
		}
		c1.WriteAll(p)
		p.Sleep(time.Second)
		eng.Quiesce(p)
		ckStart := p.Now()
		r.store.ChkptAll(p)
		eng.OnCheckpoint(ckStart)
		if got := eng.predicted[c3.ID]; got != 3 {
			t.Errorf("predicted(c3) = %d, want 3", got)
		}
		if got := eng.predicted[c1.ID]; got != 1 {
			t.Errorf("predicted(c1) = %d, want 1", got)
		}
		eng.Stop()
	})
	e.Run()
}

func TestDCPCPHoldsHotChunkUntilPredictedCount(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: DCPCP, BWPerCore: 1e9})
	e.Go("app", func(p *sim.Proc) {
		hot, _ := r.store.NVAlloc(p, "hot", 100*mem.MB, true)
		iterate := func() {
			eng.BeginInterval(p)
			// 3 modification episodes spread over the interval, the last
			// near the end — pre-copying after episode 1 or 2 is waste.
			for i := 0; i < 3; i++ {
				hot.WriteAll(p)
				p.Sleep(600 * time.Millisecond)
			}
			eng.Quiesce(p)
			ckStart := p.Now()
			r.store.ChkptAll(p)
			eng.OnCheckpoint(ckStart)
		}
		iterate() // learning
		copiesAfterLearning := eng.Counters.Get("precopy_copies")
		iterate() // predicted
		copies := eng.Counters.Get("precopy_copies") - copiesAfterLearning
		// Exactly one pre-copy: after the third (final) modification.
		if copies != 1 {
			t.Errorf("pre-copies in predicted interval = %d, want 1", copies)
		}
		eng.Stop()
	})
	e.Run()
}

func TestDCPCPAdaptsWhenChunkTurnsHot(t *testing.T) {
	// The paper: "We continuously adapt [the prediction] to deal with
	// application changes across iterations." A chunk learned at one
	// episode per interval that later also gets modified *after* its
	// pre-copy (the copy re-arms protection, so the late store faults and
	// is counted) must have its prediction raised — mispredictions are
	// observable exactly when they cost a re-copy.
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: DCPCP, BWPerCore: 1e9})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "drifter", 10*mem.MB, true)
		// Learning interval: one episode.
		eng.BeginInterval(p)
		c.WriteAll(p)
		p.Sleep(2 * time.Second)
		eng.Quiesce(p)
		ck := p.Now()
		r.store.ChkptAll(p)
		eng.OnCheckpoint(ck)
		if got := eng.predicted[c.ID]; got != 1 {
			t.Errorf("predicted after learning = %d, want 1", got)
		}
		// Drifted interval: one early episode, the engine pre-copies at
		// the threshold, then a late second episode hits the re-armed
		// protection.
		eng.BeginInterval(p)
		c.WriteAll(p)
		p.Sleep(2 * time.Second) // engine copies ~at the learned threshold
		c.WriteAll(p)            // late store: faults, counted as episode 2
		p.Sleep(200 * time.Millisecond)
		eng.Quiesce(p)
		ck = p.Now()
		r.store.ChkptAll(p)
		eng.OnCheckpoint(ck)
		if got := eng.predicted[c.ID]; got != 2 {
			t.Errorf("predicted after drift = %d, want 2", got)
		}
		eng.Stop()
	})
	e.Run()
}

func TestEngineThresholdAdaptsToBandwidth(t *testing.T) {
	// T_p = I - D/BW re-derives every checkpoint: more checkpoint data
	// means an earlier threshold.
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: DCPC, BWPerCore: 1e9})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "a", 100*mem.MB, true)
		run := func() time.Duration {
			eng.BeginInterval(p)
			c.WriteAll(p)
			p.Sleep(2 * time.Second)
			eng.Quiesce(p)
			ck := p.Now()
			r.store.ChkptAll(p)
			eng.OnCheckpoint(ck)
			return eng.threshold
		}
		t1 := run()
		// Grow the checkpoint: threshold must move earlier (smaller T_p).
		r.store.NVAlloc(p, "b", 900*mem.MB, true)
		r.store.Chunk(core.GenID("b")).WriteAll(p)
		t2 := run()
		if t2 >= t1 {
			t.Errorf("threshold did not shrink with more data: %v -> %v", t1, t2)
		}
		eng.Stop()
	})
	e.Run()
}

func TestQuiesceBlocksUntilCopyDone(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: CPC})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "big", 1000*mem.MB, true)
		c.WriteAll(p)
		eng.BeginInterval(p)
		p.Sleep(time.Millisecond) // let the engine start its ~0.5s copy
		start := p.Now()
		eng.Quiesce(p)
		waited := p.Now() - start
		if waited <= 0 {
			t.Error("Quiesce returned while a copy was in flight")
		}
		if c.Dirty() {
			t.Error("chunk still dirty after quiesced pre-copy")
		}
		eng.Stop()
	})
	e.Run()
}

func TestRateCapSlowsBackgroundStream(t *testing.T) {
	run := func(cap float64) time.Duration {
		e := sim.NewEnv()
		r := newRig(e)
		eng := New(r.store, Config{Scheme: CPC, RateCap: cap})
		var took time.Duration
		e.Go("app", func(p *sim.Proc) {
			c, _ := r.store.NVAlloc(p, "a", 100*mem.MB, true)
			eng.BeginInterval(p)
			c.WriteAll(p)
			p.Sleep(time.Millisecond)
			start := p.Now()
			eng.Quiesce(p)
			took = p.Now() - start
			eng.Stop()
		})
		e.Run()
		return took
	}
	capped := run(50 * 1e6)
	uncapped := run(0)
	if capped <= uncapped {
		t.Fatalf("capped copy (%v) should take longer than uncapped (%v)", capped, uncapped)
	}
}

func TestStopKillsWorker(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: CPC})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "a", 10*mem.MB, true)
		eng.BeginInterval(p)
		c.WriteAll(p)
		eng.Stop()
	})
	e.Run() // must terminate: a live worker would keep polling forever
	if e.LiveProcs() != 0 {
		t.Fatalf("%d processes still live after Stop", e.LiveProcs())
	}
}

func TestMeterAccumulatesBusyTime(t *testing.T) {
	e := sim.NewEnv()
	r := newRig(e)
	eng := New(r.store, Config{Scheme: CPC})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "a", 200*mem.MB, true)
		eng.BeginInterval(p)
		c.WriteAll(p)
		p.Sleep(2 * time.Second)
		eng.Quiesce(p)
		eng.Stop()
	})
	e.Run()
	busy := eng.Meter.Busy(e.Now())
	// 210MB at 2GB/s ~ 0.1s busy.
	if busy < 50*time.Millisecond || busy > 500*time.Millisecond {
		t.Fatalf("worker busy = %v, want ~100ms", busy)
	}
}
