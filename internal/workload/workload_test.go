package workload

import (
	"math"
	"testing"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

func TestSpecSizesMatchPaperScale(t *testing.T) {
	cases := []struct {
		spec     AppSpec
		min, max int64
	}{
		{GTC(), 400 * mem.MB, 470 * mem.MB},         // paper: ~433 MB/core
		{LAMMPSRhodo(), 390 * mem.MB, 450 * mem.MB}, // paper: ~410 MB/proc
		{CM1(), 370 * mem.MB, 430 * mem.MB},         // paper: ~400 MB fixed
	}
	for _, c := range cases {
		got := c.spec.CheckpointSize()
		if got < c.min || got > c.max {
			t.Errorf("%s checkpoint size = %d MB, want %d-%d MB",
				c.spec.Name, got/mem.MB, c.min/mem.MB, c.max/mem.MB)
		}
	}
}

func TestTableIVDistributionShapes(t *testing.T) {
	// GTC and LAMMPS are large-chunk heavy; CM1 is small/mid-chunk heavy
	// with almost nothing above 100MB — the property that drives the
	// difference in pre-copy benefit.
	subG, midG, _, overG := SizeDistribution(GTC())
	if overG < 0.35 || overG > 0.55 {
		t.Errorf("GTC over-100MB share = %v, want ~0.45", overG)
	}
	if subG < 0.35 || subG > 0.55 {
		t.Errorf("GTC sub-MB share = %v, want ~0.45", subG)
	}
	if midG < 0.05 || midG > 0.2 {
		t.Errorf("GTC 10-20MB share = %v, want ~0.09", midG)
	}
	_, _, _, overL := SizeDistribution(LAMMPSRhodo())
	if overL < 0.2 || overL > 0.35 {
		t.Errorf("LAMMPS over-100MB share = %v, want ~0.25", overL)
	}
	_, _, _, overC := SizeDistribution(CM1())
	if overC >= 0.05 {
		t.Errorf("CM1 over-100MB share = %v, want < 0.05", overC)
	}
}

func TestScaledTo(t *testing.T) {
	spec := GTC().ScaledTo(100 * mem.MB)
	got := spec.CheckpointSize()
	if math.Abs(float64(got)-float64(100*mem.MB)) > float64(mem.MB) {
		t.Fatalf("scaled size = %d, want ~100MB", got)
	}
	if len(spec.Chunks) != len(GTC().Chunks) {
		t.Fatal("scaling changed chunk count")
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range Names {
		if s, ok := SpecByName(name); !ok || s.Name != name {
			t.Errorf("SpecByName(%q) = %q, %v", name, s.Name, ok)
		}
	}
	if _, ok := SpecByName("nope"); ok {
		t.Error("SpecByName(nope) found something")
	}
}

func newStore(e *sim.Env) *core.Store {
	k := nvmkernel.New(e, mem.NewDRAM(e, 32*mem.GB), mem.NewPCM(e, 16*mem.GB))
	return core.NewStore(k.Attach("rank0"), core.Options{})
}

func TestSetupAllocatesAndInitializes(t *testing.T) {
	e := sim.NewEnv()
	s := newStore(e)
	e.Go("app", func(p *sim.Proc) {
		app, err := Setup(p, s, GTC())
		if err != nil {
			t.Error(err)
			return
		}
		if len(app.Chunks) != len(GTC().Chunks) {
			t.Errorf("chunks = %d", len(app.Chunks))
		}
		if got := s.CheckpointSize(); got != GTC().CheckpointSize() {
			t.Errorf("store checkpoint size = %d", got)
		}
		// All chunks are dirty after init: first checkpoint moves everything.
		dirty := 0
		for _, c := range s.Chunks() {
			if c.Persistent && c.Dirty() {
				dirty++
			}
		}
		if dirty != len(app.Chunks) {
			t.Errorf("dirty after init = %d", dirty)
		}
	})
	e.Run()
}

func TestIterateTakesIterTimeAndModifies(t *testing.T) {
	e := sim.NewEnv()
	s := newStore(e)
	e.Go("app", func(p *sim.Proc) {
		spec := GTC()
		app, err := Setup(p, s, spec)
		if err != nil {
			t.Error(err)
			return
		}
		s.ChkptAll(p) // clean slate
		start := p.Now()
		if err := app.Iterate(p); err != nil {
			t.Error(err)
			return
		}
		elapsed := p.Now() - start
		// Compute time plus small fault overhead; no comm wired.
		if elapsed < spec.IterTime || elapsed > spec.IterTime+time.Second {
			t.Errorf("iteration took %v, want ~%v", elapsed, spec.IterTime)
		}
		// Init-only chunk must stay clean; the rest are dirty again.
		if s.Chunk(core.GenID("grid-static")).Dirty() {
			t.Error("init-only chunk dirtied by iteration")
		}
		if s.Chunk(core.GenID("electrons")).Dirty() == false {
			t.Error("per-iteration chunk not dirtied")
		}
		if app.Iterations != 1 {
			t.Errorf("Iterations = %d", app.Iterations)
		}
	})
	e.Run()
}

func TestIterateCommBurstsWired(t *testing.T) {
	e := sim.NewEnv()
	s := newStore(e)
	e.Go("app", func(p *sim.Proc) {
		spec := CM1()
		app, err := Setup(p, s, spec)
		if err != nil {
			t.Error(err)
			return
		}
		var sent int64
		var bursts int
		app.Comm = func(p *sim.Proc, n int64) {
			sent += n
			bursts++
		}
		app.Iterate(p)
		if bursts != DefaultCommOps {
			t.Errorf("comm exchanges = %d, want %d", bursts, DefaultCommOps)
		}
		per := spec.CommPerIter / DefaultCommOps
		if sent != per*DefaultCommOps {
			t.Errorf("sent = %d, want ~%d", sent, spec.CommPerIter)
		}
	})
	e.Run()
}

func TestHotChunkModifiedThreeTimesPerIteration(t *testing.T) {
	e := sim.NewEnv()
	s := newStore(e)
	e.Go("app", func(p *sim.Proc) {
		app, err := Setup(p, s, LAMMPSRhodo())
		if err != nil {
			t.Error(err)
			return
		}
		hot := s.Chunk(core.GenID("x-positions"))
		before := hot.ModCount
		// Keep protection armed so each episode is observable.
		s.OnModify(func(c *core.Chunk) { c.DeferProtect() })
		hot.Protect(p)
		app.Iterate(p)
		if got := hot.ModCount - before; got != 3 {
			t.Errorf("hot chunk episodes = %d, want 3 (Figure 6's C3)", got)
		}
	})
	e.Run()
}

func TestAMRChunksGrowAcrossIterations(t *testing.T) {
	e := sim.NewEnv()
	s := newStore(e)
	e.Go("app", func(p *sim.Proc) {
		spec := AMR()
		spec.CommPerIter = 0
		spec.IterTime = 2 * time.Second
		app, err := Setup(p, s, spec)
		if err != nil {
			t.Error(err)
			return
		}
		before := s.CheckpointSize()
		for i := 0; i < 3; i++ {
			if err := app.Iterate(p); err != nil {
				t.Error(err)
				return
			}
			st := s.ChkptAll(p)
			if st.ChunksCopied == 0 {
				t.Error("grown chunks not recheckpointed")
			}
		}
		after := s.CheckpointSize()
		// 8 patches grew 1.15^3 ≈ 1.52x; the two static chunks did not.
		if after <= before {
			t.Fatalf("checkpoint size did not grow: %d -> %d", before, after)
		}
		patch := s.Chunk(core.GenID("patch-0"))
		growth := 1.15 * 1.15 * 1.15 * 0.99
		wantMin := int64(float64(24*mem.MB) * growth)
		if patch.Size < wantMin {
			t.Fatalf("patch-0 size = %d, want >= %d after 3 refinements", patch.Size, wantMin)
		}
		if s.Chunk(core.GenID("grid-topology")).Size != 48*mem.MB {
			t.Fatal("static chunk size changed")
		}
	})
	e.Run()
}

func TestAMRAvailableByName(t *testing.T) {
	if _, ok := SpecByName("amr"); !ok {
		t.Fatal("amr spec not retrievable by name")
	}
}

func TestMADBenchRamdiskSlowerAndNoisier(t *testing.T) {
	const cores = 12
	const size = 100 * mem.MB
	e1 := sim.NewEnv()
	fsRes := MADBenchRamdisk(e1, mem.NewDRAM(e1, 64*mem.GB), cores, size)
	e2 := sim.NewEnv()
	memRes := MADBenchMemory(e2, mem.NewDRAM(e2, 64*mem.GB), cores, size)

	if fsRes.CheckpointT <= memRes.CheckpointT {
		t.Fatalf("ramdisk %v not slower than memory %v", fsRes.CheckpointT, memRes.CheckpointT)
	}
	syncRatio := float64(fsRes.SyncCalls) / float64(memRes.SyncCalls)
	if syncRatio < 2 {
		t.Fatalf("sync-call ratio = %.1f, want ~3x", syncRatio)
	}
	if fsRes.LockWait <= memRes.LockWait {
		t.Fatalf("ramdisk lock wait %v not above memory %v", fsRes.LockWait, memRes.LockWait)
	}
}

func TestMADBenchGapWidensWithSize(t *testing.T) {
	slowdown := func(size int64) float64 {
		e1 := sim.NewEnv()
		fs := MADBenchRamdisk(e1, mem.NewDRAM(e1, 64*mem.GB), 12, size)
		e2 := sim.NewEnv()
		m := MADBenchMemory(e2, mem.NewDRAM(e2, 64*mem.GB), 12, size)
		return float64(fs.CheckpointT-m.CheckpointT) / float64(m.CheckpointT)
	}
	small := slowdown(50 * mem.MB)
	large := slowdown(300 * mem.MB)
	if large < small-0.05 {
		t.Fatalf("slowdown shrank with size: %v -> %v", small, large)
	}
	// Paper: 46% slower at 300MB/core.
	if large < 0.25 || large > 0.7 {
		t.Fatalf("300MB slowdown = %.0f%%, want in the tens of percent (~46%%)", large*100)
	}
}

func TestParallelMemcpyPerCoreDrop(t *testing.T) {
	res := MemcpySweep([]int{1, 2, 4, 8, 12}, 33*mem.MB)
	if len(res) != 5 {
		t.Fatal("sweep size")
	}
	for i := 1; i < len(res); i++ {
		if res[i].PerCoreBW > res[i-1].PerCoreBW {
			t.Fatalf("per-core BW increased from %d to %d procs", res[i-1].Procs, res[i].Procs)
		}
	}
	drop := 1 - res[4].PerCoreBW/res[0].PerCoreBW
	// Figure 4: ~67% per-core drop at 12 processes.
	if drop < 0.55 || drop > 0.75 {
		t.Fatalf("per-core drop at 12 procs = %.0f%%, want ~67%%", drop*100)
	}
}
