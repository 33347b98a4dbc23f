package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// rig bundles a one-node simulation with a kernel and runs fn in an
// application process.
type rig struct {
	env *sim.Env
	k   *nvmkernel.Kernel
}

func newRig() *rig {
	e := sim.NewEnv()
	k := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB))
	return &rig{env: e, k: k}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc, s *Store)) {
	t.Helper()
	r.env.Go("app", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		fn(p, s)
	})
	r.env.Run()
}

func TestGenIDStableAndDistinct(t *testing.T) {
	if GenID("electrons") != GenID("electrons") {
		t.Fatal("GenID not deterministic")
	}
	if GenID("electrons") == GenID("ions") {
		t.Fatal("GenID collision on distinct names")
	}
}

func TestNVAllocBasics(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, err := s.NVAlloc(p, "field", 10*mem.MB, true)
		if err != nil {
			t.Fatal(err)
		}
		if c.Size != 10*mem.MB || !c.Persistent || c.Restored {
			t.Fatalf("chunk state: %+v", c)
		}
		if len(c.Data()) != DefaultPayloadCap {
			t.Fatalf("payload len = %d, want cap %d", len(c.Data()), DefaultPayloadCap)
		}
		if _, err := s.NVAlloc(p, "field", mem.MB, true); !errors.Is(err, ErrChunkExists) {
			t.Fatalf("duplicate alloc err = %v", err)
		}
		if _, err := s.NVAlloc(p, "bad", 0, true); !errors.Is(err, ErrBadDims) {
			t.Fatalf("zero-size alloc err = %v", err)
		}
		if s.ChunkByName("field") != c || s.Chunk(c.ID) != c {
			t.Fatal("lookup mismatch")
		}
	})
}

func TestNV2DAlloc(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, err := s.NV2DAlloc(p, "grid", 1024, 512, 8)
		if err != nil {
			t.Fatal(err)
		}
		if c.Size != 1024*512*8 {
			t.Fatalf("2D size = %d", c.Size)
		}
		if _, err := s.NV2DAlloc(p, "bad", -1, 2, 8); !errors.Is(err, ErrBadDims) {
			t.Fatalf("bad dims err = %v", err)
		}
	})
}

func TestSmallChunkFullPayload(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "small", 1000, true)
		if len(c.Data()) != 1000 {
			t.Fatalf("small chunk payload = %d, want full 1000", len(c.Data()))
		}
	})
}

func TestCheckpointSizeCountsPersistentOnly(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		s.NVAlloc(p, "a", 5*mem.MB, true)
		s.NVAlloc(p, "b", 3*mem.MB, false)
		s.NVAlloc(p, "c", 2*mem.MB, true)
		if got := s.CheckpointSize(); got != 7*mem.MB {
			t.Fatalf("CheckpointSize = %d, want 7MB", got)
		}
	})
}

func TestChkptAllCopiesDirtyChunksAndCharges(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "field", 200*mem.MB, true)
		if err := c.WriteAll(p); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		st := s.ChkptAll(p)
		if st.ChunksCopied != 1 || st.BytesCopied != 200*mem.MB {
			t.Fatalf("stats = %+v", st)
		}
		// ~210MB at 2GB/s NVM write is ~105ms; the copy dominates.
		elapsed := p.Now() - start
		if elapsed < 90*time.Millisecond || elapsed > 200*time.Millisecond {
			t.Fatalf("checkpoint took %v, want ~100ms (NVM-write-bound)", elapsed)
		}
		if !c.Committed() || c.Version != 1 {
			t.Fatalf("commit state: committed=%v version=%d", c.Committed(), c.Version)
		}
	})
}

func TestUnmodifiedChunkSkippedOnSecondCheckpoint(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "init-only", 50*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		// GTC's init-only chunks: no modification before the next checkpoint.
		st := s.ChkptAll(p)
		if st.ChunksCopied != 0 || st.ChunksSkipped != 1 {
			t.Fatalf("second checkpoint stats = %+v, want skip", st)
		}
		if st.BytesCopied != 0 {
			t.Fatalf("copied %d bytes for clean chunk", st.BytesCopied)
		}
		if c.Version != 1 {
			t.Fatalf("version advanced without new data: %d", c.Version)
		}
	})
}

func TestModificationAfterCheckpointRedirties(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		if c.Dirty() {
			t.Fatal("chunk dirty right after checkpoint")
		}
		if !c.Protected() {
			t.Fatal("chunk not re-protected after checkpoint")
		}
		c.Write(p, 0, 100)
		if !c.Dirty() {
			t.Fatal("modification not detected")
		}
		st := s.ChkptAll(p)
		if st.ChunksCopied != 1 {
			t.Fatalf("redirtied chunk not copied: %+v", st)
		}
		if c.Version != 2 {
			t.Fatalf("version = %d, want 2", c.Version)
		}
	})
}

func TestChunkLevelFaultCostOncePerInterval(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		// Many writes in one interval: only the first should fault.
		for i := 0; i < 100; i++ {
			c.Write(p, int64(i*1000), 1000)
		}
	})
	if got := r.k.ProtectionFaults; got != 1 {
		t.Fatalf("protection_faults = %d, want 1", got)
	}
}

func TestPreCopyShrinksCheckpointWork(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		a, _ := s.NVAlloc(p, "a", 50*mem.MB, true)
		b, _ := s.NVAlloc(p, "b", 50*mem.MB, true)
		a.WriteAll(p)
		b.WriteAll(p)
		// Background pre-copy stages chunk a.
		if n := s.PreCopyChunk(p, a, 0); n != 50*mem.MB {
			t.Fatalf("precopy moved %d", n)
		}
		st := s.ChkptAll(p)
		if st.ChunksCopied != 1 || st.ChunksSkipped != 1 {
			t.Fatalf("stats = %+v: pre-copied chunk should be skipped", st)
		}
		if st.BytesCopied != 50*mem.MB {
			t.Fatalf("checkpoint copied %d, want only b's 50MB", st.BytesCopied)
		}
		// Both chunks must still commit.
		if a.Version != 1 || b.Version != 1 {
			t.Fatalf("versions a=%d b=%d", a.Version, b.Version)
		}
	})
}

func TestPreCopyCleanChunkIsNoop(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "a", 10*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		if n := s.PreCopyChunk(p, c, 0); n != 0 {
			t.Fatalf("precopy of clean chunk moved %d bytes", n)
		}
	})
}

func TestPreCopiedThenModifiedChunkRecopied(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "hot", 20*mem.MB, true)
		c.WriteAll(p)
		s.PreCopyChunk(p, c, 0)
		c.Write(p, 0, 4096) // hot chunk: modified after pre-copy
		st := s.ChkptAll(p)
		if st.ChunksCopied != 1 {
			t.Fatalf("modified-after-precopy chunk not recopied: %+v", st)
		}
		// Total data moved exceeds the checkpoint size: pre-copy did extra
		// work — the cost the DCPCP predictor exists to avoid.
		total := s.Counters.Get("precopy_bytes") + s.Counters.Get("ckpt_bytes")
		if total != 40*mem.MB {
			t.Fatalf("total copied = %d, want 40MB", total)
		}
	})
}

func TestStoreDuringStageRedirtiesChunk(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "hot", 400*mem.MB, true)
		c.WriteAll(p)
		// Background pre-copy takes ~0.2s; write into the chunk mid-copy.
		copier := p.Env().Go("copier", func(q *sim.Proc) {
			s.PreCopyChunk(q, c, 0)
		})
		p.Sleep(50 * time.Millisecond)
		if err := c.Write(p, 0, 4096); err != nil {
			t.Fatal(err)
		}
		p.Join(copier)
		if !c.Dirty() {
			t.Fatal("store during an in-flight stage was not observed; the chunk must stay dirty")
		}
		st := s.ChkptAll(p)
		if st.ChunksCopied != 1 {
			t.Fatalf("checkpoint did not recopy the raced chunk: %+v", st)
		}
	})
}

func TestForceFullCopiesCleanChunks(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "a", 10*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		st := s.ChkptAllForce(p)
		if st.ChunksCopied != 1 || st.BytesCopied != 10*mem.MB {
			t.Fatalf("ChkptAllForce stats = %+v, want full copy", st)
		}
		if c.Version != 2 {
			t.Fatalf("version = %d, want 2", c.Version)
		}
	})
}

func TestAdoptRemoteInstallsDataAndRedirties(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "a", mem.MB, true)
		data := make([]byte, len(c.Data()))
		for i := range data {
			data[i] = 0x5A
		}
		if err := s.AdoptRemote(p, c, data, 7); err != nil {
			t.Fatal(err)
		}
		if !c.Restored || c.Version != 7 || !c.Dirty() {
			t.Fatalf("adopt state: restored=%v v=%d dirty=%v", c.Restored, c.Version, c.Dirty())
		}
		if c.Data()[0] != 0x5A {
			t.Fatal("adopted data not installed")
		}
		oversize := make([]byte, c.Size+1)
		if err := s.AdoptRemote(p, c, oversize, 8); err == nil {
			t.Fatal("oversized adoption succeeded")
		}
	})
}

func TestChkptID(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		a, _ := s.NVAlloc(p, "a", 10*mem.MB, true)
		b, _ := s.NVAlloc(p, "b", 10*mem.MB, true)
		a.WriteAll(p)
		b.WriteAll(p)
		st, err := s.ChkptID(p, a.ID)
		if err != nil || st.ChunksCopied != 1 {
			t.Fatalf("ChkptID: %+v err=%v", st, err)
		}
		if a.Version != 1 || b.Version != 0 {
			t.Fatalf("versions a=%d b=%d, want 1,0", a.Version, b.Version)
		}
		if _, err := s.ChkptID(p, 999999); !errors.Is(err, ErrNoChunk) {
			t.Fatalf("unknown id err = %v", err)
		}
	})
}

func TestWriteOutOfRange(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "a", 1000, true)
		if err := c.Write(p, 900, 200); err == nil {
			t.Fatal("out-of-range write succeeded")
		}
		if err := c.Write(p, -1, 10); err == nil {
			t.Fatal("negative offset write succeeded")
		}
		if err := c.Write(p, 0, 0); err != nil {
			t.Fatalf("zero-length write: %v", err)
		}
	})
}

func TestRestartRestoresCommittedData(t *testing.T) {
	r := newRig()
	var want []byte
	r.env.Go("life1", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, _ := s.NVAlloc(p, "field", 5*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		c.Write(p, 0, mem.MB) // dirty again, NOT checkpointed
		want = append([]byte(nil), nil...)
		// The restore must produce the committed content, not the dirty one;
		// grab the staged payload as ground truth.
		data, ok := s.StagedData(p, c.ID)
		if !ok {
			t.Error("no staged data")
		}
		want = append([]byte(nil), data...)
		s.Proc().Exit()
		r.k.SoftReset()
	})
	r.env.Run()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, err := s.NVAlloc(p, "field", 5*mem.MB, true)
		if err != nil {
			t.Error(err)
			return
		}
		if !c.Restored || c.Version != 1 {
			t.Errorf("restored=%v version=%d", c.Restored, c.Version)
		}
		for i := range want {
			if c.Data()[i] != want[i] {
				t.Errorf("restored byte %d = %x, want %x", i, c.Data()[i], want[i])
				return
			}
		}
		if c.Dirty() {
			t.Error("freshly restored chunk should be clean")
		}
	})
	r.env.Run()
}

func TestRestartWithoutCheckpointStartsFresh(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "never-checkpointed", 5*mem.MB, true)
		c.WriteAll(p)
		// no ChkptAll
	})
	r.k.SoftReset()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, err := s.NVAlloc(p, "never-checkpointed", 5*mem.MB, true)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Restored {
			t.Error("chunk restored without a committed checkpoint")
		}
	})
	r.env.Run()
}

func TestRestartSizeMismatchIgnoresOldData(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "field", 5*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
	})
	r.k.SoftReset()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, err := s.NVAlloc(p, "field", 8*mem.MB, true) // problem size changed
		if err != nil {
			t.Error(err)
			return
		}
		if c.Restored {
			t.Error("size-mismatched chunk must not restore")
		}
	})
	r.env.Run()
}

func TestCrashMidCheckpointRevertsToPreviousVersion(t *testing.T) {
	r := newRig()
	var v1 []byte
	r.env.Go("life1", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, _ := s.NVAlloc(p, "field", 50*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		data, _ := s.StagedData(p, c.ID)
		v1 = append([]byte(nil), data...)
		// Second checkpoint: stage the new data but crash before commit —
		// PreCopyChunk stages without flipping the commit record.
		c.WriteAll(p)
		s.PreCopyChunk(p, c, 0)
		p.KillSelf() // crash before ChkptAll could commit
	})
	r.env.Run()
	r.k.SoftReset()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, err := s.NVAlloc(p, "field", 50*mem.MB, true)
		if err != nil {
			t.Error(err)
			return
		}
		if !c.Restored || c.Version != 1 {
			t.Errorf("restored=%v version=%d, want v1", c.Restored, c.Version)
			return
		}
		for i := range v1 {
			if c.Data()[i] != v1[i] {
				t.Error("recovered data is not the committed version")
				return
			}
		}
	})
	r.env.Run()
}

func TestSingleVersionCrashMidStageLosesLocalCopy(t *testing.T) {
	e := sim.NewEnv()
	k := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB))
	e.Go("life1", func(p *sim.Proc) {
		s := NewStore(k.Attach("rank0"), Options{SingleVersion: true})
		c, _ := s.NVAlloc(p, "field", 50*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		c.WriteAll(p)
		// Begin restaging over the only copy, then crash mid-operation.
		p.Env().Go("crasher", func(q *sim.Proc) {
			q.Sleep(time.Millisecond)
			p.Kill()
		})
		s.ChkptAll(p)
		t.Error("checkpoint survived the crash")
	})
	e.Run()
	k.SoftReset()
	e.Go("life2", func(p *sim.Proc) {
		s := NewStore(k.Attach("rank0"), Options{SingleVersion: true})
		c, err := s.NVAlloc(p, "field", 50*mem.MB, true)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Restored {
			t.Error("single-version mode restored a torn checkpoint")
		}
	})
	e.Run()
}

func TestLazyRestoreDefersAndVerifiesOnRead(t *testing.T) {
	r := newRig()
	var want []byte
	r.env.Go("life1", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, _ := s.NVAlloc(p, "field", 100*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		data, _ := s.StagedData(p, c.ID)
		want = append([]byte(nil), data...)
	})
	r.env.Run()
	r.k.SoftReset()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{LazyRestore: true})
		allocStart := p.Now()
		c, err := s.NVAlloc(p, "field", 100*mem.MB, true)
		if err != nil {
			t.Error(err)
			return
		}
		allocTime := p.Now() - allocStart
		if !c.Restored || !c.RestorePending() {
			t.Errorf("restored=%v pending=%v, want lazy restore armed", c.Restored, c.RestorePending())
		}
		// Allocation must be near-instant: no 100MB copy yet.
		if allocTime > time.Millisecond {
			t.Errorf("lazy NVAlloc took %v, want ~0", allocTime)
		}
		// First read materializes: pays the copy and verifies content.
		readStart := p.Now()
		if err := c.Read(p, 0, 4096); err != nil {
			t.Error(err)
			return
		}
		readTime := p.Now() - readStart
		if readTime < 5*time.Millisecond {
			t.Errorf("materializing read took %v, want a real copy", readTime)
		}
		if c.RestorePending() {
			t.Error("still pending after read")
		}
		for i := range want {
			if c.Data()[i] != want[i] {
				t.Error("lazy-restored data differs from committed checkpoint")
				return
			}
		}
		if got := s.Counters.Get("lazy_restores"); got != 1 {
			t.Errorf("lazy_restores = %d", got)
		}
	})
	r.env.Run()
}

func TestLazyRestoreSkippedOnFullOverwrite(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "field", 100*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
	})
	r.k.SoftReset()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{LazyRestore: true})
		c, _ := s.NVAlloc(p, "field", 100*mem.MB, true)
		start := p.Now()
		// The application discards the old state: overwrite everything.
		if err := c.WriteAll(p); err != nil {
			t.Error(err)
			return
		}
		// Only fault/protect costs — no 100MB copy.
		if took := p.Now() - start; took > time.Millisecond {
			t.Errorf("full overwrite of lazy chunk took %v, want no copy", took)
		}
		if got := s.Counters.Get("lazy_restores_skipped"); got != 1 {
			t.Errorf("lazy_restores_skipped = %d", got)
		}
		// The overwritten data must checkpoint and be the new content.
		st := s.ChkptAll(p)
		if st.ChunksCopied != 1 {
			t.Errorf("post-overwrite checkpoint: %+v", st)
		}
	})
	r.env.Run()
}

func TestLazyRestorePartialWriteMaterializesFirst(t *testing.T) {
	r := newRig()
	var want []byte
	r.env.Go("life1", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		data, _ := s.StagedData(p, c.ID)
		want = append([]byte(nil), data...)
	})
	r.env.Run()
	r.k.SoftReset()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{LazyRestore: true})
		c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
		// A partial write must land on top of the restored bytes.
		if err := c.Write(p, 0, 100); err != nil {
			t.Error(err)
			return
		}
		// Bytes far from the written range must be the checkpoint's.
		lo, _ := c.payloadRange(5*mem.MB, 100)
		for i := lo; i < lo+100 && i < len(want); i++ {
			if c.Data()[i] != want[i] {
				t.Error("partial write lost restored bytes")
				return
			}
		}
	})
	r.env.Run()
}

func TestForcedCheckpointMaterializesLazyChunk(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
	})
	r.k.SoftReset()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{LazyRestore: true})
		c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
		st := s.ChkptAllForce(p)
		if st.ChunksCopied != 1 {
			t.Errorf("forced checkpoint: %+v", st)
		}
		if c.RestorePending() {
			t.Error("pending restore survived a forced stage")
		}
	})
	r.env.Run()
}

func TestNVDeleteReleasesEverything(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "tmp", 30*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		if err := s.NVDelete(p, c); err != nil {
			t.Fatal(err)
		}
		if s.ChunkByName("tmp") != nil {
			t.Fatal("chunk still listed")
		}
		if err := s.NVDelete(p, c); !errors.Is(err, ErrNoChunk) {
			t.Fatalf("double delete err = %v", err)
		}
		if st := s.Alloc().Stats(); st.Allocated != 0 {
			t.Fatalf("NVM heap leak: %+v", st)
		}
		// Deleted chunks must not restore after restart.
		if s.HasCommitted(p, "tmp") {
			t.Fatal("commit record survived delete")
		}
	})
	if r.k.DRAM.Used != 0 {
		t.Fatalf("DRAM leak: %d", r.k.DRAM.Used)
	}
}

func TestNVAttachBehavesLikePersistentChunk(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, err := s.NVAttach(p, "lmp-array", 10*mem.MB)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Attached || !c.Persistent {
			t.Fatalf("attach flags: %+v", c)
		}
		c.WriteAll(p)
		st := s.ChkptAll(p)
		if st.ChunksCopied != 1 {
			t.Fatalf("attached chunk not checkpointed: %+v", st)
		}
	})
}

func TestNVReallocGrowPreservesDataAndRedirties(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "grow", 1000, true)
		c.WriteAll(p)
		first := append([]byte(nil), c.Data()...)
		s.ChkptAll(p)
		if err := s.NVRealloc(p, c, 2000); err != nil {
			t.Fatal(err)
		}
		if c.Size != 2000 {
			t.Fatalf("Size = %d", c.Size)
		}
		for i := range first {
			if c.Data()[i] != first[i] {
				t.Fatal("realloc lost payload prefix")
			}
		}
		if !c.Dirty() {
			t.Fatal("realloc'd chunk must be dirty")
		}
		st := s.ChkptAll(p)
		if st.BytesCopied != 2000 {
			t.Fatalf("post-realloc checkpoint copied %d", st.BytesCopied)
		}
	})
}

func TestSnapshotReflectsState(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		a, _ := s.NVAlloc(p, "a", mem.MB, true)
		s.NVAlloc(p, "scratch", mem.MB, false)
		a.WriteAll(p)
		s.PreCopyChunk(p, a, 0)
		snap := s.Snapshot(p)
		if len(snap) != 1 {
			t.Fatalf("snapshot has %d entries, want 1 (persistent only)", len(snap))
		}
		cs := snap[0]
		if cs.Name != "a" || !cs.StagePending || cs.ModSeq != cs.CleanSeq {
			t.Fatalf("snapshot = %+v", cs)
		}
	})
}

func TestOnModifyCallbackFires(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "a", mem.MB, true)
		events := 0
		s.OnModify(func(got *Chunk) {
			if got != c {
				t.Error("callback got wrong chunk")
			}
			events++
		})
		c.WriteAll(p)
		s.ChkptAll(p) // re-protects
		c.Write(p, 0, 10)
		c.Write(p, 10, 10) // same interval: no second fault
		if events != 1 {
			t.Fatalf("modify events = %d, want 1 (chunk was unprotected at first write)", events)
		}
	})
}

// The stage hook fires wherever StagedSeq is assigned — each stage, and a
// restored chunk once it is in the store — and AllocSeq orders chunks by
// allocation without reuse, reading 0 once a chunk is deleted.
func TestOnStageAndAllocSeq(t *testing.T) {
	r := newRig()
	r.env.Go("life1", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		var staged []string
		s.OnStage(func(c *Chunk) {
			if c.AllocSeq() == 0 || s.Chunk(c.ID) != c {
				t.Errorf("hook saw %s outside the store", c.Name)
			}
			staged = append(staged, c.Name)
		})
		a, _ := s.NVAlloc(p, "a", mem.MB, true)
		b, _ := s.NVAlloc(p, "b", mem.MB, true)
		if a.AllocSeq() != 1 || b.AllocSeq() != 2 {
			t.Errorf("AllocSeq a=%d b=%d, want 1 2", a.AllocSeq(), b.AllocSeq())
		}
		a.WriteAll(p)
		b.WriteAll(p)
		s.PreCopyChunk(p, b, 0)
		s.ChkptAll(p)
		if got := strings.Join(staged, ","); got != "b,a" {
			t.Errorf("stage hook order %q, want b,a", got)
		}
		if err := s.NVDelete(p, a); err != nil {
			t.Fatal(err)
		}
		c, _ := s.NVAlloc(p, "a", mem.MB, true)
		if a.AllocSeq() != 0 || c.AllocSeq() != 3 {
			t.Errorf("after delete and re-alloc: old AllocSeq %d, new %d; want 0 and 3",
				a.AllocSeq(), c.AllocSeq())
		}
		s.Proc().Exit()
		r.k.SoftReset()
	})
	r.env.Run()
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		var restored []string
		s.OnStage(func(c *Chunk) { restored = append(restored, c.Name) })
		b, _ := s.NVAlloc(p, "b", mem.MB, true)
		s.NVAlloc(p, "fresh", mem.MB, true)
		if !b.Restored || len(restored) != 1 || restored[0] != "b" {
			t.Errorf("restore hook calls %v, want [b]", restored)
		}
	})
	r.env.Run()
}

func TestStagedDataChecksumRoundTrip(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		c, _ := s.NVAlloc(p, "a", mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
		data, ok := s.StagedData(p, c.ID)
		if !ok {
			t.Fatal("no staged data after checkpoint")
		}
		snap := s.Snapshot(p)
		if checksum(data, c.Size) != snap[0].Checksum {
			t.Fatal("checksum mismatch between staged data and snapshot")
		}
	})
}

func TestDirtyLocalOrdering(t *testing.T) {
	newRig().run(t, func(p *sim.Proc, s *Store) {
		names := []string{"z", "a", "m"}
		for _, n := range names {
			c, _ := s.NVAlloc(p, n, mem.MB, true)
			c.WriteAll(p)
		}
		dirty := s.DirtyLocal()
		if len(dirty) != 3 {
			t.Fatalf("dirty count = %d", len(dirty))
		}
		for i, c := range dirty {
			if c.Name != names[i] {
				t.Fatalf("dirty order %v, want allocation order %v", c.Name, names[i])
			}
		}
	})
}
