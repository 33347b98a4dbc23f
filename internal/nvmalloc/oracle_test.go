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
	la, ok := a.live[addr]
	return la.size, ok
}

// CheckInvariants validates internal consistency: live allocations are
// disjoint, free extents are sorted/disjoint/coalesced, and stats match the
// live set.
func (a *Allocator) CheckInvariants() error {
	type rng struct{ lo, hi int64 }
	var rs []rng
	var allocated, active int64
	for addr, la := range a.live {
		rs = append(rs, rng{addr, addr + la.rounded})
		allocated += la.size
		active += la.rounded
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
