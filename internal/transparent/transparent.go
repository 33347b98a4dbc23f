// Package transparent implements the checkpointing model the paper contrasts
// with (Section II) and names as a future generalization of its mechanisms:
// transparent, whole-address-space checkpoints. Instead of the application
// marking checkpoint variables, the entire process image is replicated to
// NVM — either in full at every checkpoint, or incrementally with page-level
// write protection (the classic pre-copy of transparent systems, whose
// per-page fault cost the paper's chunk-level design avoids).
//
// It is built on the same nvmkernel substrate as the application-initiated
// library, so the two models are directly comparable: same devices, same
// fault costs, same commit discipline.
package transparent

import (
	"errors"
	"fmt"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// Mode selects how checkpoints find the bytes to move.
type Mode int

const (
	// FullCopy replicates the whole image every checkpoint.
	FullCopy Mode = iota
	// Incremental write-protects the image and copies only pages dirtied
	// since the previous checkpoint, paying one protection fault per page.
	Incremental
)

func (m Mode) String() string {
	if m == Incremental {
		return "incremental"
	}
	return "full"
}

// Errors.
var (
	ErrNoCheckpoint = errors.New("transparent: no committed checkpoint")
	ErrChecksum     = errors.New("transparent: image checksum mismatch")
)

// Stats summarizes one transparent checkpoint.
type Stats struct {
	BytesCopied int64
	PagesCopied int
	Duration    time.Duration
}

// imageRecord is the durable commit pointer for the process image.
type imageRecord struct {
	Slot    int
	Version uint64
	Size    int64
}

// Checkpointer snapshots one process's entire address space.
type Checkpointer struct {
	kproc *nvmkernel.Process
	image *nvmkernel.Region
	size  int64
	mode  Mode

	committed int // committed slot, -1 before first commit
	version   uint64
	dirty     map[int]bool // page index -> dirtied since last checkpoint
}

// New builds a checkpointer for a process whose image (heap, globals,
// stacks) occupies size bytes of DRAM. Two NVM slots of the same size are
// reserved for the image versions.
func New(p *sim.Proc, kproc *nvmkernel.Process, size int64) (*Checkpointer, error) {
	c := &Checkpointer{
		kproc:     kproc,
		size:      size,
		committed: -1,
		dirty:     make(map[int]bool),
	}
	img, err := kproc.DRAMAlloc("process-image", size, 0)
	if err != nil {
		return nil, err
	}
	c.image = img
	for slot := 0; slot < 2; slot++ {
		if _, _, err := kproc.NVMMap(p, c.slotID(slot), size, 0); err != nil {
			return nil, fmt.Errorf("transparent: reserving image slot: %w", err)
		}
	}
	img.SetFaultHandler(func(fp *sim.Proc, r *nvmkernel.Region, page int) {
		r.UnprotectPage(fp, page)
		c.dirty[page] = true
	})
	return c, nil
}

func (c *Checkpointer) slotID(slot int) string { return fmt.Sprintf("timage/%d", slot) }
func (c *Checkpointer) metaKey() string        { return "tmeta" }

// SetMode selects full-copy or incremental checkpointing. Incremental mode
// arms page-level protection from the next checkpoint onward.
func (c *Checkpointer) SetMode(m Mode) { c.mode = m }

// Mode returns the current mode.
func (c *Checkpointer) Mode() Mode { return c.mode }

// Size returns the image size.
func (c *Checkpointer) Size() int64 { return c.size }

// DirtyPages returns how many pages are dirty since the last checkpoint
// (meaningful in Incremental mode after the first checkpoint).
func (c *Checkpointer) DirtyPages() int { return len(c.dirty) }

// Touch models the application storing to [off, off+n) of its address
// space. In incremental mode, stores to protected pages fault (charged per
// page) and mark those pages dirty.
func (c *Checkpointer) Touch(p *sim.Proc, off, n int64) error {
	if off < 0 || n < 0 || off+n > c.size {
		return fmt.Errorf("transparent: touch [%d,%d) outside image of %d", off, off+n, c.size)
	}
	_, err := c.image.TouchWrite(p, off, n)
	return err
}

// Checkpoint snapshots the image into the in-progress NVM slot and flips the
// commit record. Full mode copies everything; incremental mode copies only
// dirty pages (everything, on the first checkpoint) and then re-protects
// them for the next round.
func (c *Checkpointer) Checkpoint(p *sim.Proc) Stats {
	start := p.Now()
	k := c.kproc.Kernel()
	target := 0
	if c.committed == 0 {
		target = 1
	}

	var bytes int64
	var pages int
	if c.mode == FullCopy || c.committed < 0 {
		bytes = c.size
		pages = c.image.Pages()
	} else {
		pages = len(c.dirty)
		bytes = int64(pages) * mem.PageSize
		if bytes > c.size {
			bytes = c.size
		}
	}
	mem.Copy(p, k.DRAM, k.NVM, bytes)
	p.Sleep(k.NVM.FlushCost(bytes))

	k.MetaLock.Lock(p)
	c.version++
	c.kproc.SetMeta(p, c.metaKey(), imageRecord{Slot: target, Version: c.version, Size: c.size})
	k.MetaLock.Unlock(p)
	c.committed = target

	if c.mode == Incremental {
		// Re-arm protection so the next round's dirty set is tracked.
		c.image.Protect(p)
		for pg := range c.dirty {
			delete(c.dirty, pg)
		}
	}
	return Stats{BytesCopied: bytes, PagesCopied: pages, Duration: p.Now() - start}
}

// Restore loads the committed image back into DRAM after a restart.
func (c *Checkpointer) Restore(p *sim.Proc) error {
	k := c.kproc.Kernel()
	k.MetaLock.Lock(p)
	v, ok := c.kproc.GetMeta(p, c.metaKey())
	k.MetaLock.Unlock(p)
	if !ok || v == nil {
		return ErrNoCheckpoint
	}
	rec, isRec := v.(imageRecord)
	if !isRec || rec.Size != c.size {
		return ErrNoCheckpoint
	}
	mem.Copy(p, k.NVM, k.DRAM, c.size)
	c.committed = rec.Slot
	c.version = rec.Version
	return nil
}

// Version returns the committed checkpoint version.
func (c *Checkpointer) Version() uint64 { return c.version }
