package nvmalloc

import (
	"fmt"
	"sort"
)

// Owns reports whether addr is a live allocation.
func (a *Allocator) Owns(addr int64) bool {
	_, ok := a.live[addr]
	return ok
}

// SizeOf returns the requested size of the live allocation at addr.
func (a *Allocator) SizeOf(addr int64) (int64, bool) {
	size, ok := a.live[addr]
	return size, ok
}

// CheckInvariants validates internal consistency: live allocations are
// disjoint, free extents are sorted/disjoint/coalesced, and stats match the
// live set, and every live huge extent, and nothing else, has its region
// number recorded.
func (a *Allocator) CheckInvariants() error {
	type rng struct{ lo, hi int64 }
	var rs []rng
	var allocated, active int64
	huge := 0
	for addr, size := range a.live {
		rounded := reserved(size)
		rs = append(rs, rng{addr, addr + rounded})
		allocated += size
		active += rounded
		if size > LargeMax {
			if _, ok := a.huge[addr]; !ok {
				return fmt.Errorf("huge extent %#x has no region number", addr)
			}
			huge++
		}
	}
	if huge != len(a.huge) || huge != a.stats.Huge {
		return fmt.Errorf("%d live huge extents, %d region numbers, stats %d", huge, len(a.huge), a.stats.Huge)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
	for i := 1; i < len(rs); i++ {
		if rs[i].lo < rs[i-1].hi {
			return fmt.Errorf("live extents overlap: [%#x,%#x) and [%#x,%#x)",
				rs[i-1].lo, rs[i-1].hi, rs[i].lo, rs[i].hi)
		}
	}
	for i := 1; i < len(a.free); i++ {
		prev, cur := a.free[i-1], a.free[i]
		if cur.Addr < prev.End() {
			return fmt.Errorf("free extents overlap at %#x", cur.Addr)
		}
		if prev.End() == cur.Addr && sameChunk(prev.Addr, cur.Addr) {
			return fmt.Errorf("uncoalesced free extents at %#x", cur.Addr)
		}
	}
	if allocated != a.stats.Allocated || active != a.stats.Active {
		return fmt.Errorf("stats drift: allocated %d/%d active %d/%d",
			allocated, a.stats.Allocated, active, a.stats.Active)
	}
	return nil
}
