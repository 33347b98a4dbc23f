package nvmalloc

import (
	"errors"
	"fmt"
	"sort"

	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// Allocator errors.
var (
	ErrBadSize  = errors.New("nvmalloc: non-positive size")
	ErrBadFree  = errors.New("nvmalloc: free of unallocated address")
	ErrExhaust  = errors.New("nvmalloc: NVM heap exhausted")
	ErrNotOwned = errors.New("nvmalloc: address not owned by allocator")
)

// Extent is an allocated address range in the process's NVM heap.
type Extent struct {
	Addr int64
	Size int64 // requested size; the reserved range may be class-rounded
}

// End returns the first address past the requested range.
func (e Extent) End() int64 { return e.Addr + e.Size }

// Stats summarizes allocator state.
type Stats struct {
	Allocated int64 // sum of live requested sizes
	Active    int64 // sum of live class-rounded sizes
	Mapped    int64 // bytes of kernel regions held
	Allocs    int64
	Frees     int64
	Slabs     int
	Chunks    int
	Huge      int
}

// Allocator is one process's NVM heap allocator.
type Allocator struct {
	proc   *nvmkernel.Process
	prefix string
	// bins[i] holds slabs of sizeClasses[i] that still have free slots;
	// it is nil until the first small allocation.
	bins     [][]*slab
	slabs    map[int64]*slab // by base address
	free     []Extent        // free large extents, sorted by Addr
	chunkIDs int
	slabIDs  int
	hugeIDs  int
	next     int64 // next virtual base address for a new kernel region
	// live maps each allocated address to its requested size, from which
	// the tier, the class and the reserved size follow; huge maps a huge
	// extent's address to the number in its kernel region's id.
	live  map[int64]int64
	huge  map[int64]int
	stats Stats
}

type slab struct {
	base  int64
	class int
	slot  int64 // slot size
	used  []bool
	free  int
}

// New creates an allocator drawing slabs and chunks from proc's NVM
// container under kernel region ids prefixed by prefix.
func New(proc *nvmkernel.Process, prefix string) *Allocator {
	return &Allocator{
		proc:   proc,
		prefix: prefix,
		slabs:  make(map[int64]*slab),
		live:   make(map[int64]int64),
		huge:   make(map[int64]int),
	}
}

// Stats returns a snapshot of allocator statistics.
func (a *Allocator) Stats() Stats { return a.stats }

// Alloc reserves size bytes and returns its extent. The returned address is
// at least Quantum-aligned.
func (a *Allocator) Alloc(p *sim.Proc, size int64) (Extent, error) {
	if size <= 0 {
		return Extent{}, ErrBadSize
	}
	var (
		addr    int64
		rounded = reserved(size)
		err     error
	)
	switch {
	case size <= SmallMax:
		addr, err = a.allocSmall(p, classIndex(sizeClasses, size))
	case size <= LargeMax:
		addr, err = a.allocLarge(p, rounded)
	default:
		addr, err = a.allocHuge(p, rounded)
	}
	if err != nil {
		return Extent{}, err
	}
	a.live[addr] = size
	a.stats.Allocated += size
	a.stats.Active += rounded
	a.stats.Allocs++
	return Extent{Addr: addr, Size: size}, nil
}

// Free releases a previously allocated address.
func (a *Allocator) Free(p *sim.Proc, addr int64) error {
	size, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	delete(a.live, addr)
	rounded := reserved(size)
	a.stats.Allocated -= size
	a.stats.Active -= rounded
	a.stats.Frees++
	switch {
	case size <= SmallMax:
		a.freeSmall(addr)
	case size <= LargeMax:
		a.freeLarge(Extent{Addr: addr, Size: rounded})
	default:
		n := a.huge[addr]
		delete(a.huge, addr)
		a.stats.Huge--
		a.stats.Mapped -= rounded
		return a.proc.NVMUnmap(p, a.hugeID(n))
	}
	return nil
}

// --- small tier -------------------------------------------------------------

func (a *Allocator) allocSmall(p *sim.Proc, class int) (int64, error) {
	if a.bins == nil {
		a.bins = make([][]*slab, len(sizeClasses))
	}
	for _, s := range a.bins[class] {
		if s.free > 0 {
			return a.takeSlot(s), nil
		}
	}
	// Grow: map a fresh slab region from the kernel.
	a.slabIDs++
	id := fmt.Sprintf("%s/slab/%d", a.prefix, a.slabIDs)
	if _, _, err := a.proc.NVMMap(p, id, SlabSize); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrExhaust, err)
	}
	base := a.grow(SlabSize)
	slot := sizeClasses[class]
	n := int(SlabSize / slot)
	s := &slab{base: base, class: class, slot: slot, used: make([]bool, n), free: n}
	a.bins[class] = append(a.bins[class], s)
	a.slabs[base] = s
	a.stats.Slabs++
	a.stats.Mapped += SlabSize
	return a.takeSlot(s), nil
}

func (a *Allocator) takeSlot(s *slab) int64 {
	for i, u := range s.used {
		if !u {
			s.used[i] = true
			s.free--
			return s.base + int64(i)*s.slot
		}
	}
	panic("nvmalloc: slab bookkeeping corrupt")
}

func (a *Allocator) freeSmall(addr int64) {
	base := addr - addr%SlabSize
	s, ok := a.slabs[base]
	if !ok {
		panic(fmt.Sprintf("nvmalloc: small free %#x has no slab", addr))
	}
	i := int((addr - s.base) / s.slot)
	if !s.used[i] {
		panic(fmt.Sprintf("nvmalloc: double free of slot %d in slab %#x", i, base))
	}
	s.used[i] = false
	s.free++
	// Slabs are retained for reuse (jemalloc keeps runs cached); a fully
	// free slab still counts as mapped.
}

// --- large tier -------------------------------------------------------------

func (a *Allocator) allocLarge(p *sim.Proc, size int64) (int64, error) {
	// Best-fit over the free list.
	best := -1
	for i, e := range a.free {
		if e.Size >= size && (best < 0 || e.Size < a.free[best].Size) {
			best = i
		}
	}
	if best < 0 {
		a.chunkIDs++
		id := fmt.Sprintf("%s/chunk/%d", a.prefix, a.chunkIDs)
		if _, _, err := a.proc.NVMMap(p, id, ChunkSize); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrExhaust, err)
		}
		base := a.grow(ChunkSize)
		a.insertFree(Extent{Addr: base, Size: ChunkSize})
		a.stats.Chunks++
		a.stats.Mapped += ChunkSize
		return a.allocLarge(p, size)
	}
	e := a.free[best]
	a.free = append(a.free[:best], a.free[best+1:]...)
	if e.Size > size {
		a.insertFree(Extent{Addr: e.Addr + size, Size: e.Size - size})
	}
	return e.Addr, nil
}

func (a *Allocator) freeLarge(e Extent) {
	a.insertFree(e)
	a.coalesce()
}

func (a *Allocator) insertFree(e Extent) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].Addr > e.Addr })
	a.free = append(a.free, Extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = e
}

func (a *Allocator) coalesce() {
	out := a.free[:0]
	for _, e := range a.free {
		if n := len(out); n > 0 && out[n-1].End() == e.Addr && sameChunk(out[n-1].Addr, e.Addr) {
			out[n-1].Size += e.Size
			continue
		}
		out = append(out, e)
	}
	a.free = out
}

// sameChunk reports whether two addresses belong to the same 4MB chunk, so
// extents never coalesce across distinct kernel regions.
func sameChunk(x, y int64) bool {
	return x/ChunkSize == y/ChunkSize
}

// --- huge tier --------------------------------------------------------------

func (a *Allocator) allocHuge(p *sim.Proc, size int64) (int64, error) {
	a.hugeIDs++
	if _, _, err := a.proc.NVMMap(p, a.hugeID(a.hugeIDs), size); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrExhaust, err)
	}
	// Huge regions are aligned to ChunkSize so they never share a chunk
	// with large extents.
	base := a.growAligned(size, ChunkSize)
	a.huge[base] = a.hugeIDs
	a.stats.Huge++
	a.stats.Mapped += size
	return base, nil
}

// hugeID is the kernel region id of the n-th huge extent.
func (a *Allocator) hugeID(n int) string { return fmt.Sprintf("%s/huge/%d", a.prefix, n) }

// grow claims size bytes of fresh virtual address space aligned to size's
// natural region boundary.
func (a *Allocator) grow(size int64) int64 { return a.growAligned(size, size) }

func (a *Allocator) growAligned(size, align int64) int64 {
	base := (a.next + align - 1) / align * align
	a.next = base + size
	return base
}
