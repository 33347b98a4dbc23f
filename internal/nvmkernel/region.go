package nvmkernel

import (
	"fmt"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// pageSet is a fixed-size bitset over page indices: a region's
// write-protection bits. Regions at paper scale run to hundreds of
// thousands of pages, and the page table is touched on every simulated
// store, so the set is packed 64 pages per word: allocation and clearing
// move 1/8th the memory of a []bool, and range scans (anyProtected) skip 64
// unprotected pages per load.
//
// Invariant: bits at and above the page count are always zero, so a
// word-wise "any bit set" needs no tail masking.
type pageSet []uint64

func newPageSet(pages int) pageSet { return make(pageSet, (pages+63)/64) }

func (s pageSet) get(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s pageSet) clear(i int)    { s[i>>6] &^= 1 << (uint(i) & 63) }

// setAll sets the first n bits.
func (s pageSet) setAll(n int) {
	for w := range s {
		s[w] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		s[len(s)-1] = (1 << rem) - 1
	}
}

func (s pageSet) clearAll() {
	for w := range s {
		s[w] = 0
	}
}

func (s pageSet) any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// anyInRange reports whether any bit in [from, to] is set.
func (s pageSet) anyInRange(from, to int) bool {
	if from > to {
		return false
	}
	fw, tw := from>>6, to>>6
	loMask := ^uint64(0) << (uint(from) & 63)
	hiMask := ^uint64(0) >> (63 - uint(to)&63)
	if fw == tw {
		return s[fw]&loMask&hiMask != 0
	}
	if s[fw]&loMask != 0 {
		return true
	}
	for w := fw + 1; w < tw; w++ {
		if s[w] != 0 {
			return true
		}
	}
	return s[tw]&hiMask != 0
}

// Region is a contiguous mapped range: a page table of write-protection
// bits, plus an optional real data payload. VirtualSize drives all
// timing and capacity accounting; Data holds the payloadSize real bytes
// DRAMAlloc was asked for, for callers that store into the region directly.
// An NVM region has no Data: core's chunks keep their payload as a Payload.
type Region struct {
	ID          string
	VirtualSize int64
	Data        []byte

	owner          *Process
	prot           pageSet // write-protected pages
	handler        FaultHandler
	Kind           RegionKind
	pendingProtect bool
}

func newRegion(pr *Process, id string, kind RegionKind, virtualSize int64, payloadSize int) *Region {
	r := &Region{
		ID:          id,
		Kind:        kind,
		VirtualSize: virtualSize,
		Data:        make([]byte, payloadSize),
		owner:       pr,
	}
	r.prot = newPageSet(r.Pages())
	return r
}

// Pages returns the number of pages in the region, at least one.
func (r *Region) Pages() int {
	return max(1, int((r.VirtualSize+mem.PageSize-1)/mem.PageSize))
}

// SetFaultHandler installs the chunk-level protection-fault handler.
func (r *Region) SetFaultHandler(h FaultHandler) { r.handler = h }

// Protect write-protects every page of the region (one mprotect call).
func (r *Region) Protect(p *sim.Proc) {
	if p != nil {
		p.Sleep(r.owner.k.ProtectCost)
	}
	r.prot.setAll(r.Pages())
}

// Unprotect clears write protection on every page (one mprotect call).
func (r *Region) Unprotect(p *sim.Proc) {
	if p != nil {
		p.Sleep(r.owner.k.ProtectCost)
	}
	r.prot.clearAll()
}

// UnprotectPage clears write protection on a single page — the page-level
// pre-copy ablation's fault handler, which pays one fault per page.
func (r *Region) UnprotectPage(p *sim.Proc, page int) {
	if p != nil {
		p.Sleep(r.owner.k.ProtectCost)
	}
	r.prot.clear(page)
}

// Protected reports whether any page of the region is write-protected.
func (r *Region) Protected() bool { return r.prot.any() }

// TouchWrite models the application storing to [off, off+n). If any touched
// page is write-protected, a protection fault is charged (FaultCost) and the
// installed handler runs before the store retires; with no handler the write
// fails, as a real segfault would. It returns whether a fault occurred.
//
// Each protected page in the range faults once, in order, until the handler
// has cleared the rest of the range. The paper's chunk-level handler
// unprotects the whole chunk, so a write faults once per modified chunk. The
// page-level ablation Protects the whole region and its handler clears only
// the faulting page (UnprotectPage), so a write faults once per page.
func (r *Region) TouchWrite(p *sim.Proc, off, n int64) (bool, error) {
	if n <= 0 {
		return false, nil
	}
	first := int(off / mem.PageSize)
	last := int((off + n - 1) / mem.PageSize)
	if pages := r.Pages(); last >= pages {
		last = pages - 1
	}
	if !r.prot.anyInRange(first, last) {
		// Clean fast path: most stores land on already-unprotected pages,
		// so the per-page fault loop below is skipped entirely.
		if r.pendingProtect {
			r.pendingProtect = false
			r.Protect(p)
		}
		return false, nil
	}
	faulted := false
	for pg := first; pg <= last; pg++ {
		if !r.prot.get(pg) {
			continue
		}
		if r.handler == nil {
			return false, fmt.Errorf("%w: %s/%s page %d", ErrNoHandler, r.owner.name, r.ID, pg)
		}
		r.owner.k.ProtectionFaults++
		if p != nil {
			p.Sleep(r.owner.k.FaultCost)
		}
		r.handler(p, r, pg)
		faulted = true
		if !r.prot.get(pg) {
			// Chunk-level handler unprotected the whole range; the
			// remaining pages cannot fault again.
			if !r.anyProtected(pg+1, last) {
				break
			}
		}
	}
	if r.pendingProtect {
		// A fault handler (e.g. the DCPCP episode counter) asked for
		// re-protection; it takes effect once the faulting store retires,
		// never mid-write — re-protecting inside the handler would make
		// the same store fault on every page.
		r.pendingProtect = false
		r.Protect(p)
	}
	return faulted, nil
}

// DeferProtect requests that the region be write-protected again as soon as
// the in-flight write completes. Outside a write it applies at the next
// TouchWrite; use Protect for immediate effect.
func (r *Region) DeferProtect() { r.pendingProtect = true }

func (r *Region) anyProtected(from, to int) bool {
	return r.prot.anyInRange(from, to)
}

// String implements fmt.Stringer.
func (r *Region) String() string {
	return fmt.Sprintf("nvmkernel.Region{%s/%s %s %dB}", r.owner.name, r.ID, r.Kind, r.VirtualSize)
}
