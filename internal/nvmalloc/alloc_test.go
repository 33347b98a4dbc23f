package nvmalloc

import (
	"errors"
	"math/rand"
	"testing"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// withAllocator runs fn inside a simulated process with a fresh allocator
// over a generously sized NVM device.
func withAllocator(t *testing.T, nvmCap int64, fn func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel)) {
	t.Helper()
	e := sim.NewEnv()
	k := nvmkernel.New(e, mem.NewDRAM(e, 8*mem.GB), mem.NewPCM(e, nvmCap))
	e.Go("app", func(p *sim.Proc) {
		proc := k.Attach("rank0")
		a := New(proc, "heap")
		fn(p, a, k)
	})
	e.Run()
}

func TestSizeClassTable(t *testing.T) {
	classes := smallClasses()
	if classes[0] != Quantum {
		t.Fatalf("first class = %d, want %d", classes[0], Quantum)
	}
	for i := 1; i < len(classes); i++ {
		if classes[i] <= classes[i-1] {
			t.Fatalf("classes not ascending at %d: %v", i, classes[i-1:i+1])
		}
		if classes[i]%Quantum != 0 {
			t.Fatalf("class %d not quantum aligned", classes[i])
		}
	}
	if last := classes[len(classes)-1]; last != SmallMax {
		t.Fatalf("last class = %d, want %d", last, SmallMax)
	}
}

func TestClassIndexRoundsUp(t *testing.T) {
	classes := smallClasses()
	for _, size := range []int64{1, 15, 16, 17, 100, 1000, SmallMax - 1, SmallMax} {
		i := classIndex(classes, size)
		if i < 0 {
			t.Fatalf("classIndex(%d) = -1", size)
		}
		if classes[i] < size {
			t.Fatalf("class %d < size %d", classes[i], size)
		}
		if i > 0 && classes[i-1] >= size {
			t.Fatalf("classIndex(%d) not minimal: class[%d]=%d also fits", size, i-1, classes[i-1])
		}
	}
	if classIndex(classes, SmallMax+1) != -1 {
		t.Fatal("classIndex beyond SmallMax should be -1")
	}
}

func TestSmallAllocSharesSlab(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		e1, err := a.Alloc(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := a.Alloc(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		if e1.Addr == e2.Addr {
			t.Fatal("two allocations share an address")
		}
		st := a.Stats()
		if st.Slabs != 1 {
			t.Fatalf("Slabs = %d, want 1 (same class shares slab)", st.Slabs)
		}
		if st.Mapped != SlabSize {
			t.Fatalf("Mapped = %d, want one slab", st.Mapped)
		}
		if st.Allocated != 128 || st.Active != 128 {
			t.Fatalf("Allocated/Active = %d/%d, want 128/128", st.Allocated, st.Active)
		}
	})
}

func TestSmallClassRounding(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		if _, err := a.Alloc(p, 17); err != nil {
			t.Fatal(err)
		}
		st := a.Stats()
		if st.Allocated != 17 {
			t.Fatalf("Allocated = %d, want 17", st.Allocated)
		}
		if st.Active != 32 {
			t.Fatalf("Active = %d, want class-rounded 32", st.Active)
		}
	})
}

func TestSlotReuseAfterFree(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		e1, _ := a.Alloc(p, 128)
		if err := a.Free(p, e1.Addr); err != nil {
			t.Fatal(err)
		}
		e2, _ := a.Alloc(p, 128)
		if e2.Addr != e1.Addr {
			t.Fatalf("freed slot not reused: %#x then %#x", e1.Addr, e2.Addr)
		}
	})
}

func TestLargeAllocationPageRounded(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		e, err := a.Alloc(p, 100*mem.KB)
		if err != nil {
			t.Fatal(err)
		}
		if e.Addr%mem.PageSize != 0 {
			t.Fatalf("large alloc not page aligned: %#x", e.Addr)
		}
		st := a.Stats()
		if st.Chunks != 1 {
			t.Fatalf("Chunks = %d, want 1", st.Chunks)
		}
		if st.Active != 100*mem.KB { // 100KB is already page-multiple
			t.Fatalf("Active = %d", st.Active)
		}
	})
}

func TestLargeFreeCoalesces(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		e1, _ := a.Alloc(p, 512*mem.KB)
		e2, _ := a.Alloc(p, 512*mem.KB)
		e3, _ := a.Alloc(p, 512*mem.KB)
		a.Free(p, e1.Addr)
		a.Free(p, e3.Addr)
		a.Free(p, e2.Addr) // middle free must merge all three
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if len(a.free) != 1 {
			t.Fatalf("free list has %d extents, want 1 fully coalesced", len(a.free))
		}
		if a.free[0].Size != ChunkSize {
			t.Fatalf("coalesced size = %d, want whole chunk", a.free[0].Size)
		}
	})
}

func TestHugeAllocationDedicatedRegion(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		size := int64(10 * mem.MB)
		e, err := a.Alloc(p, size)
		if err != nil {
			t.Fatal(err)
		}
		st := a.Stats()
		if st.Huge != 1 || st.Chunks != 0 {
			t.Fatalf("Huge/Chunks = %d/%d, want 1/0", st.Huge, st.Chunks)
		}
		if err := a.Free(p, e.Addr); err != nil {
			t.Fatal(err)
		}
		st = a.Stats()
		if st.Huge != 0 {
			t.Fatalf("Huge = %d after free", st.Huge)
		}
		if st.Mapped != 0 {
			t.Fatalf("Mapped = %d after huge free, want 0 (region unmapped)", st.Mapped)
		}
		if k.NVM.Used != 0 {
			t.Fatalf("kernel NVM used = %d after huge free", k.NVM.Used)
		}
	})
}

func TestFreeErrors(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		if err := a.Free(p, 0x1234); !errors.Is(err, ErrBadFree) {
			t.Fatalf("bad free err = %v", err)
		}
		e, _ := a.Alloc(p, 64)
		a.Free(p, e.Addr)
		if err := a.Free(p, e.Addr); !errors.Is(err, ErrBadFree) {
			t.Fatalf("double free err = %v", err)
		}
	})
}

func TestAllocBadSize(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		if _, err := a.Alloc(p, 0); !errors.Is(err, ErrBadSize) {
			t.Fatalf("zero alloc err = %v", err)
		}
		if _, err := a.Alloc(p, -5); !errors.Is(err, ErrBadSize) {
			t.Fatalf("negative alloc err = %v", err)
		}
	})
}

func TestExhaustionSurfacesError(t *testing.T) {
	withAllocator(t, 8*mem.MB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		// 8MB device: one 4MB chunk fits, a second cannot.
		if _, err := a.Alloc(p, mem.MB); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Alloc(p, 20*mem.MB); !errors.Is(err, ErrExhaust) {
			t.Fatalf("exhaustion err = %v", err)
		}
	})
}

func TestOwnsAndSizeOf(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		e, _ := a.Alloc(p, 777)
		if !a.Owns(e.Addr) {
			t.Fatal("Owns = false for live alloc")
		}
		if sz, ok := a.SizeOf(e.Addr); !ok || sz != 777 {
			t.Fatalf("SizeOf = (%d,%v)", sz, ok)
		}
		a.Free(p, e.Addr)
		if a.Owns(e.Addr) {
			t.Fatal("Owns = true after free")
		}
	})
}

func TestRandomAllocFreeInvariants(t *testing.T) {
	withAllocator(t, 2*mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		rng := rand.New(rand.NewSource(42))
		var liveAddrs []int64
		for i := 0; i < 3000; i++ {
			if len(liveAddrs) > 0 && rng.Intn(100) < 40 {
				j := rng.Intn(len(liveAddrs))
				if err := a.Free(p, liveAddrs[j]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				liveAddrs = append(liveAddrs[:j], liveAddrs[j+1:]...)
			} else {
				// Mix of small, large, and occasional huge sizes.
				var size int64
				switch rng.Intn(10) {
				case 0:
					size = int64(rng.Intn(int(8*mem.MB)) + int(LargeMax) + 1)
				case 1, 2:
					size = int64(rng.Intn(int(LargeMax-SmallMax))) + SmallMax + 1
				default:
					size = int64(rng.Intn(int(SmallMax))) + 1
				}
				e, err := a.Alloc(p, size)
				if err != nil {
					t.Fatalf("op %d alloc %d: %v", i, size, err)
				}
				liveAddrs = append(liveAddrs, e.Addr)
			}
			if i%250 == 0 {
				if err := a.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		for _, addr := range liveAddrs {
			if err := a.Free(p, addr); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		st := a.Stats()
		if st.Allocated != 0 || st.Active != 0 {
			t.Fatalf("leak after free-all: %+v", st)
		}
		if st.Allocs != st.Frees {
			t.Fatalf("Allocs %d != Frees %d", st.Allocs, st.Frees)
		}
	})
}

func TestManyDistinctClassesDistinctSlabs(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		if _, err := a.Alloc(p, 16); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Alloc(p, 4096); err != nil {
			t.Fatal(err)
		}
		if a.Stats().Slabs != 2 {
			t.Fatalf("Slabs = %d, want 2 (distinct classes)", a.Stats().Slabs)
		}
	})
}

func TestSlabFillsThenGrows(t *testing.T) {
	withAllocator(t, mem.GB, func(p *sim.Proc, a *Allocator, k *nvmkernel.Kernel) {
		slotsPerSlab := int(SlabSize / 8192)
		for i := 0; i < slotsPerSlab+1; i++ {
			if _, err := a.Alloc(p, 8192); err != nil {
				t.Fatal(err)
			}
		}
		if a.Stats().Slabs != 2 {
			t.Fatalf("Slabs = %d, want 2 after overflow", a.Stats().Slabs)
		}
	})
}
