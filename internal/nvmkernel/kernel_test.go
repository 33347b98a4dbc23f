package nvmkernel

import (
	"errors"
	"slices"
	"testing"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

func newTestKernel(e *sim.Env) *Kernel {
	dram := mem.NewDRAM(e, 4*mem.GB)
	nvm := mem.NewPCM(e, 2*mem.GB)
	return New(e, dram, nvm)
}

func TestNVMMapCreateAndReattach(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		r, existed, err := pr.NVMMap(p, "chunk1", 10*mem.MB, 64)
		if err != nil || existed {
			t.Errorf("first map: existed=%v err=%v", existed, err)
		}
		r.Data[0] = 0xAB
		pr.Exit()

		// Simulated restart: same persistent name finds the region.
		pr2 := k.Attach("rank0")
		r2, existed, err := pr2.NVMMap(p, "chunk1", 10*mem.MB, 64)
		if err != nil || !existed {
			t.Errorf("re-map: existed=%v err=%v", existed, err)
		}
		if r2.Data[0] != 0xAB {
			t.Error("NVM contents did not survive process restart")
		}
	})
	e.Run()
	if k.NVM.Used != 10*mem.MB {
		t.Fatalf("NVM used = %d, want 10MB (one region)", k.NVM.Used)
	}
}

func TestNVMMapChargesSyscall(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	var took time.Duration
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		start := p.Now()
		if _, _, err := pr.NVMMap(p, "c", mem.MB, 16); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	e.Run()
	if took != DefaultSyscallCost {
		t.Fatalf("nvmmap took %v, want %v", took, DefaultSyscallCost)
	}
	if k.Syscalls != 1 {
		t.Fatalf("syscalls = %d, want 1", k.Syscalls)
	}
}

func TestNVMMapOutOfSpace(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		if _, _, err := pr.NVMMap(p, "big", 3*mem.GB, 16); err == nil {
			t.Error("oversized nvmmap succeeded")
		}
	})
	e.Run()
	if k.NVM.Used != 0 {
		t.Fatalf("failed map leaked %d bytes", k.NVM.Used)
	}
}

func TestNVMUnmapReleasesSpace(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		pr.NVMMap(p, "c", 100*mem.MB, 16)
		if err := pr.NVMUnmap(p, "c"); err != nil {
			t.Error(err)
		}
		if err := pr.NVMUnmap(p, "c"); !errors.Is(err, ErrNoSuchRegion) {
			t.Errorf("double unmap err = %v", err)
		}
	})
	e.Run()
	if k.NVM.Used != 0 {
		t.Fatalf("NVM used = %d after unmap", k.NVM.Used)
	}
}

func TestDRAMRegionsDoNotSurviveExit(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		if _, err := pr.DRAMAlloc("work", 50*mem.MB, 64); err != nil {
			t.Error(err)
		}
		if _, err := pr.DRAMAlloc("work", mem.MB, 16); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate DRAMAlloc err = %v", err)
		}
		pr.Exit()
	})
	e.Run()
	if k.DRAM.Used != 0 {
		t.Fatalf("DRAM used = %d after exit, want 0", k.DRAM.Used)
	}
}

func TestSoftResetKeepsNVMDropsDRAM(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		pr.NVMMap(p, "ckpt", 10*mem.MB, 32)
		pr.DRAMAlloc("work", 10*mem.MB, 32)
		k.SoftReset()
		pr2 := k.Attach("rank0")
		if _, existed, _ := pr2.NVMMap(p, "ckpt", 10*mem.MB, 32); !existed {
			t.Error("NVM region lost across soft reset")
		}
	})
	e.Run()
	if k.DRAM.Used != 0 {
		t.Fatalf("DRAM used = %d after soft reset", k.DRAM.Used)
	}
	if k.NVM.Used != 10*mem.MB {
		t.Fatalf("NVM used = %d, want 10MB", k.NVM.Used)
	}
}

func TestHardFailWipesNVM(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		pr.NVMMap(p, "ckpt", 10*mem.MB, 32)
		pr.Chunks().SetCommit(p, 7, CommitRecord{Version: 1})
		k.HardFail()
		pr2 := k.Attach("rank0")
		if _, existed, _ := pr2.NVMMap(p, "ckpt", 10*mem.MB, 32); existed {
			t.Error("NVM region survived hard failure")
		}
		if _, ok := pr2.Chunks().Commit(p, 7); ok || len(pr2.Chunks().IDs()) != 0 {
			t.Error("chunk table survived hard failure")
		}
	})
	e.Run()
	if got := k.HardFailures; got != 1 {
		t.Fatalf("hard_failures = %d", got)
	}
}

func TestProtectionFaultChargesCostAndRunsHandler(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		r, _ := pr.DRAMAlloc("chunk", 64*mem.KB, 64)
		dirty := false
		r.SetFaultHandler(func(p *sim.Proc, fr *Region, page int) {
			dirty = true
			fr.Unprotect(p) // chunk-level: unprotect the whole chunk
		})
		r.Protect(p)
		start := p.Now()
		faulted, err := r.TouchWrite(p, 0, 128)
		if err != nil || !faulted {
			t.Errorf("TouchWrite: faulted=%v err=%v", faulted, err)
		}
		if !dirty {
			t.Error("handler did not run")
		}
		elapsed := p.Now() - start
		want := k.FaultCost + k.ProtectCost
		if elapsed != want {
			t.Errorf("fault path took %v, want %v", elapsed, want)
		}
		// Second write: no protection left, no fault.
		faulted, _ = r.TouchWrite(p, 0, 128)
		if faulted {
			t.Error("faulted on unprotected page")
		}
	})
	e.Run()
	if k.ProtectionFaults != 1 {
		t.Fatalf("protection_faults = %d, want 1", k.ProtectionFaults)
	}
}

func TestChunkLevelHandlerFaultsOncePerChunk(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		r, _ := pr.DRAMAlloc("chunk", 10*mem.PageSize, 64)
		r.SetFaultHandler(func(p *sim.Proc, fr *Region, page int) { fr.Unprotect(p) })
		r.Protect(p)
		// A write spanning all 10 pages must raise exactly one fault.
		if _, err := r.TouchWrite(p, 0, 10*mem.PageSize); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if got := k.ProtectionFaults; got != 1 {
		t.Fatalf("protection_faults = %d, want 1 (chunk-level)", got)
	}
}

func TestPageLevelHandlerFaultsPerPage(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		r, _ := pr.DRAMAlloc("chunk", 10*mem.PageSize, 64)
		// Page-level ablation: the handler unprotects only the faulting page.
		r.SetFaultHandler(func(p *sim.Proc, fr *Region, page int) {
			fr.prot.clear(page)
		})
		r.Protect(p)
		if _, err := r.TouchWrite(p, 0, 10*mem.PageSize); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if got := k.ProtectionFaults; got != 10 {
		t.Fatalf("protection_faults = %d, want 10 (page-level)", got)
	}
}

func TestTouchWriteWithoutHandlerFails(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		r, _ := pr.DRAMAlloc("chunk", mem.PageSize, 16)
		r.Protect(p)
		if _, err := r.TouchWrite(p, 0, 8); !errors.Is(err, ErrNoHandler) {
			t.Errorf("err = %v, want ErrNoHandler", err)
		}
	})
	e.Run()
}

func TestChunkTableSurvivesSoftResetSharedWithHelper(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	want := CommitRecord{Slot: 1, Version: 3, Checksum: 9, Size: 64, Seq: 5, Name: "field"}
	e.Go("app", func(p *sim.Proc) {
		tab := k.Attach("rank0").Chunks()
		k.MetaLock.Lock(p)
		tab.SetSlot(p, 7, 1, Bytes([]byte{0xAB}))
		tab.SetCommit(p, 7, want)
		k.MetaLock.Unlock(p)
	})
	e.Go("helper", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		k.MetaLock.Lock(p)
		defer k.MetaLock.Unlock(p)
		tab := k.Chunks("rank0")
		if rec, ok := tab.Commit(p, 7); !ok || rec != want {
			t.Errorf("helper loaded commit record %+v (ok=%v), want %+v", rec, ok, want)
		}
		if data := tab.Slot(p, 7, 1).AppendTo(nil); len(data) != 1 || data[0] != 0xAB {
			t.Errorf("helper loaded slot %v", data)
		}
	})
	e.Run()
	k.SoftReset()
	e.Go("restarted", func(p *sim.Proc) {
		tab := k.Attach("rank0").Chunks()
		if rec, ok := tab.Commit(p, 7); !ok || rec != want {
			t.Errorf("commit record after soft reset = %+v (ok=%v)", rec, ok)
		}
		if !tab.Slot(p, 7, 1).Valid() {
			t.Error("version slot lost across soft reset")
		}
	})
	e.Run()
}

func TestChunkTableOfUnknownProcessCreatesNoState(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		k.Attach("rank0").Chunks().SetSlot(p, 1, 0, Bytes([]byte{1}))
		k.Chunks("rank0").SetSlot(p, 1, 0, Bytes([]byte{2}))
		if data := k.Attach("rank1").Chunks().Slot(p, 1, 0); data.Valid() {
			t.Errorf("rank1 sees rank0's slot: %v", data)
		}
		if data := k.Chunks("rank0").Slot(p, 1, 0).AppendTo(nil); data[0] != 2 {
			t.Errorf("slot after an outside SetSlot = %v, want [2]", data)
		}
	})
	e.Run()
	if tab := k.Chunks("ghost"); tab != nil {
		t.Error("an unknown process has a chunk table")
	}
	if names := k.ProcessNames(); len(names) != 2 {
		t.Errorf("looking up an unknown process created state: %v", names)
	}
}

func TestChunkTableIDsListWrittenCommitRecords(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		tab := k.Attach("rank0").Chunks()
		tab.SetSlot(p, 1, 0, Bytes([]byte{1})) // staged only: no commit record
		tab.SetCommit(p, 30, CommitRecord{Version: 1})
		tab.SetCommit(p, 20, CommitRecord{Version: 1})
		tab.ClearCommit(p, 20)
		tab.ClearCommit(p, 10) // a cleared record is still a written one
		if _, ok := tab.Commit(p, 20); ok {
			t.Error("cleared commit record still live")
		}
		if tab.Slot(p, 1, 1).Valid() {
			t.Error("empty slot holds a payload")
		}
		ids := tab.IDs()
		slices.Sort(ids)
		if !slices.Equal(ids, []uint64{10, 20, 30}) {
			t.Errorf("IDs = %v, want [10 20 30]", ids)
		}
	})
	e.Run()
	if k.Syscalls != 7 {
		t.Errorf("syscalls = %d, want one per access (7)", k.Syscalls)
	}
}

func TestRegionPagesRounding(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		r, _ := pr.DRAMAlloc("tiny", 1, 1)
		if r.Pages() != 1 {
			t.Errorf("1-byte region pages = %d, want 1", r.Pages())
		}
		r2, _ := pr.DRAMAlloc("odd", mem.PageSize+1, 1)
		if r2.Pages() != 2 {
			t.Errorf("page+1 region pages = %d, want 2", r2.Pages())
		}
	})
	e.Run()
}

func TestFlushCostCharged(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	var took time.Duration
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		r, _, _ := pr.NVMMap(p, "c", 10*mem.MB, 64)
		start := p.Now()
		r.Flush(p, 10*mem.MB)
		took = p.Now() - start
	})
	e.Run()
	if took <= 0 {
		t.Fatal("flush charged no time")
	}
	if k.CacheFlushes != 1 {
		t.Fatal("flush not counted")
	}
}

func TestAccessorsAndPageLevelHelpers(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	e.Go("app", func(p *sim.Proc) {
		pr := k.Attach("rank0")
		if pr.Name() != "rank0" || pr.Kernel() != k || k.Env() != e {
			t.Error("accessor mismatch")
		}
		r, _, _ := pr.NVMMap(p, "c", 4*mem.PageSize, 16)
		if pr.NVMRegion("c") != r || pr.NVMRegion("missing") != nil {
			t.Error("NVMRegion lookup wrong")
		}
		if ids := pr.NVMRegions(); len(ids) != 1 || ids[0] != "c" {
			t.Errorf("NVMRegions = %v", ids)
		}
		if r.Owner() != pr {
			t.Error("Owner mismatch")
		}
		// Page-level protect/unprotect pair.
		r.ProtectPage(p, 2)
		if !r.PageProtected(2) || r.PageProtected(1) {
			t.Error("ProtectPage wrong")
		}
		if !r.Protected() {
			t.Error("Protected() should see page 2")
		}
		r.UnprotectPage(p, 2)
		if r.Protected() {
			t.Error("still protected after UnprotectPage")
		}
		// DeferProtect applies at the end of the next write.
		r.SetFaultHandler(func(fp *sim.Proc, fr *Region, page int) { fr.Unprotect(fp) })
		r.DeferProtect()
		if _, err := r.TouchWrite(p, 0, 8); err != nil {
			t.Error(err)
		}
		if !r.Protected() {
			t.Error("DeferProtect did not apply after the write")
		}
		// DRAMFree path.
		if _, err := pr.DRAMAlloc("w", mem.PageSize, 0); err != nil {
			t.Error(err)
		}
		if err := pr.DRAMFree("w"); err != nil {
			t.Error(err)
		}
		if err := pr.DRAMFree("w"); err == nil {
			t.Error("double DRAMFree succeeded")
		}
		if names := k.ProcessNames(); len(names) != 1 || names[0] != "rank0" {
			t.Errorf("ProcessNames = %v", names)
		}
		if r.String() == "" || r.Kind.String() != "nvm" || DRAMRegion.String() != "dram" {
			t.Error("stringers wrong")
		}
	})
	e.Run()
}

func TestAttachTwicePanics(t *testing.T) {
	e := sim.NewEnv()
	k := newTestKernel(e)
	k.Attach("rank0")
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	k.Attach("rank0")
}
