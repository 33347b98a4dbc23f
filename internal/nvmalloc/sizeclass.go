// Package nvmalloc is the user-level NVM allocation component: a
// jemalloc-style allocator that carves application chunk allocations out of
// large slabs acquired from the kernel's nvmmap interface, exactly as the
// paper extends jemalloc over 'nvmap'. It allocates virtual extents (address
// ranges) in a per-process NVM heap; the checkpoint library binds chunk
// payloads to the extents it returns.
//
// Layout follows jemalloc's three tiers:
//
//   - small (≤ SmallMax): segregated size classes served from fixed-size
//     slabs with slot bitmaps;
//   - large (≤ LargeMax): page-rounded extents carved best-fit from 4 MB
//     chunks with coalescing on free;
//   - huge (> LargeMax): a dedicated kernel region per allocation.
package nvmalloc

import "nvmcp/internal/mem"

const (
	// Quantum is the minimum allocation granularity and alignment.
	Quantum = 16
	// SmallMax is the largest size served by slab size classes.
	SmallMax = 8 * mem.KB
	// SlabSize is the size of one small-class slab.
	SlabSize = 256 * mem.KB
	// ChunkSize is the size of one large-extent chunk acquired from the
	// kernel (jemalloc's "chunk").
	ChunkSize = 4 * mem.MB
	// LargeMax is the largest size served from chunks; bigger requests
	// get a dedicated region.
	LargeMax = ChunkSize / 2
)

// sizeClasses is the small size-class table every allocator shares.
var sizeClasses = smallClasses()

// smallClasses returns the small size-class table: quantum-spaced up to 128,
// then power-of-two spaced groups of four (jemalloc's spacing), up to
// SmallMax.
func smallClasses() []int64 {
	var classes []int64
	for s := int64(Quantum); s <= 128; s += Quantum {
		classes = append(classes, s)
	}
	// Groups of 4 between successive powers of two: 160,192,224,256, ...
	for base := int64(128); base < SmallMax; base *= 2 {
		step := base / 4
		for s := base + step; s <= base*2 && s <= SmallMax; s += step {
			classes = append(classes, s)
		}
	}
	return classes
}

// classIndex returns the index of the smallest class >= size, or -1 if size
// exceeds SmallMax.
func classIndex(classes []int64, size int64) int {
	if size > SmallMax {
		return -1
	}
	lo, hi := 0, len(classes)
	for lo < hi {
		mid := (lo + hi) / 2
		if classes[mid] < size {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// reserved returns the bytes an allocation of size reserves: its small
// class, or whole pages.
func reserved(size int64) int64 {
	if size <= SmallMax {
		return sizeClasses[classIndex(sizeClasses, size)]
	}
	return roundPage(size)
}

// roundPage rounds size up to a whole number of pages.
func roundPage(size int64) int64 {
	return (size + mem.PageSize - 1) / mem.PageSize * mem.PageSize
}
