package core

import (
	"fmt"

	"nvmcp/internal/nvmalloc"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// Chunk is one checkpoint variable: a DRAM working copy the application
// computes on, shadowed by one or two NVM version slots. Dirty state is a
// pair of sequence numbers: modSeq advances on each observed modification
// (chunk-level protection fault) and cleanSeq is set to modSeq whenever the
// chunk is staged to NVM or restored; the chunk needs (re)staging whenever
// they differ.
type Chunk struct {
	ID   uint64
	Name string
	Size int64
	// Version counts committed checkpoints of this chunk.
	Version uint64
	// ModCount counts observed modification episodes (protection faults),
	// feeding the DCPCP prediction table.
	ModCount int64

	store *Store
	dram  *nvmkernel.Region
	// payload is the working copy's real bytes (possibly smaller than
	// Size under payload scaling): a recipe after a whole-chunk write,
	// materialized bytes otherwise. dram carries no payload of its own.
	payload nvmkernel.Payload
	// nvmAddr is each version slot's NVM heap extent, of Size bytes, when
	// bit i of nvmHeld is set.
	nvmAddr [2]int64

	modSeq    uint64
	cleanSeq  uint64
	stagedSum uint64 // checksum of staged payload
	writeSeq  uint64 // content pattern generator
	pending   *pendingRestore

	// allocSeq is the chunk's place in its store's allocation order (see
	// AllocSeq).
	allocSeq  int32
	committed int8 // committed slot index, -1 before first commit
	nvmHeld   uint8

	Persistent bool
	Attached   bool
	// Restored is true when this chunk's contents were recovered from a
	// committed NVM version at allocation time.
	Restored     bool
	stagePending bool // staged data awaiting the next commit flip
}

// slots returns how many NVM version slots the chunk keeps.
func (c *Chunk) slots() int {
	if c.store.opts.SingleVersion {
		return 1
	}
	return 2
}

// targetSlot returns the in-progress slot staging writes into.
func (c *Chunk) targetSlot() int {
	if c.slots() == 1 {
		return 0
	}
	if c.committed == 0 {
		return 1
	}
	return 0
}

// setNVM records ext as version slot i's NVM heap extent.
func (c *Chunk) setNVM(i int, ext nvmalloc.Extent) {
	c.nvmAddr[i] = ext.Addr
	c.nvmHeld |= 1 << i
}

// AllocSeq returns the chunk's place in its store's allocation order: 1 for
// the first chunk the store ever held, rising with each allocation and never
// reused. It is 0 before the chunk joins the store and after NVDelete.
func (c *Chunk) AllocSeq() int { return int(c.allocSeq) }

// State returns the chunk's helper-visible checkpoint state. Callers that
// race the checkpoint path read it under the node's metadata lock.
func (c *Chunk) State() ChunkState {
	return ChunkState{
		ID:           c.ID,
		Name:         c.Name,
		Size:         c.Size,
		ModSeq:       c.modSeq,
		CleanSeq:     c.cleanSeq,
		StagePending: c.stagePending,
		Version:      c.Version,
		Checksum:     c.stagedSum,
	}
}

// needsStage reports whether the chunk was modified (or never staged) since
// its last staging or restore.
func (c *Chunk) needsStage() bool { return c.modSeq != c.cleanSeq }

// Dirty is the exported view of needsStage.
func (c *Chunk) Dirty() bool { return c.needsStage() }

// Payload returns the DRAM working payload (possibly smaller than Size
// under payload scaling). It is immutable: a later write replaces it.
func (c *Chunk) Payload() nvmkernel.Payload { return c.payload }

// installFaultHandler arms chunk-level dirty tracking: the first store to a
// protected chunk takes one fault, unprotects the entire chunk, and marks it
// dirty.
func (c *Chunk) installFaultHandler() {
	c.modSeq = 1
	c.dram.SetFaultHandler(func(p *sim.Proc, r *nvmkernel.Region, page int) {
		r.Unprotect(p)
		c.markDirty(p)
	})
}

// markDirty advances the modification sequence and notifies listeners. A
// chunk dirtied while its staged (but uncommitted) copy was current is a
// re-dirty: the pre-copy work just done is wasted and the chunk must move
// again at checkpoint time — the quantity Figure 9's re-dirty rate measures.
func (c *Chunk) markDirty(p *sim.Proc) {
	// One lineage event per clean→dirty edge, carrying the new generation's
	// sequence: a redirty when the staged copy was current (pre-copy work
	// wasted), a plain dirty otherwise. Already-dirty chunks advance modSeq
	// silently — the next stage captures the latest sequence anyway.
	if c.modSeq == c.cleanSeq {
		if c.stagePending {
			c.store.rec.Log(obs.EvChunkReDirtied, c.Name, c.Size, obs.Int("seq", int64(c.modSeq+1)))
			c.store.Counters[cRedirtied].Add(1)
		} else {
			c.store.rec.Log(obs.EvChunkDirty, c.Name, c.Size, obs.Int("seq", int64(c.modSeq+1)))
		}
	}
	c.modSeq++
	c.ModCount++
	c.store.notifyModify(c)
}

// Write models the application storing to [off, off+n) of the chunk during
// computation. It costs nothing except a protection fault when the chunk was
// clean (application stores run at DRAM speed as part of compute). The real
// payload bytes covering the range change deterministically so that
// checkpoints and restores can be verified end to end: a whole-chunk write
// leaves the recipe of its sequence, a partial one a fresh copy with the
// range regenerated (nvmkernel.Payload.Write).
func (c *Chunk) Write(p *sim.Proc, off, n int64) error {
	if off < 0 || n < 0 || off+n > c.Size {
		return fmt.Errorf("core: write [%d,%d) out of chunk %s size %d", off, off+n, c.Name, c.Size)
	}
	if n == 0 {
		return nil
	}
	if c.pending != nil {
		// Lazily-restored chunk touched for the first time. A write that
		// covers the whole chunk makes the old bytes dead — skip the copy.
		if err := c.store.materialize(p, c, n == c.Size); err != nil {
			return err
		}
	}
	if _, err := c.dram.TouchWrite(p, off, n); err != nil {
		return err
	}
	c.writeSeq++
	if lo, ln := c.payloadRange(off, n); ln > 0 {
		c.payload = c.payload.Write(c.ID, c.writeSeq, lo, ln)
	}
	return nil
}

// WriteAll modifies the whole chunk (the common HPC case: checkpoint data
// structures fully change every iteration).
func (c *Chunk) WriteAll(p *sim.Proc) error { return c.Write(p, 0, c.Size) }

// SeedWrites pins the content-pattern generator so the next Write produces
// bytes that depend only on the seed and the chunk identity. Workloads seed
// each write from the iteration number, making a replayed iteration after a
// restart regenerate byte-identical contents no matter which tier the chunk
// was recovered from.
func (c *Chunk) SeedWrites(seq uint64) { c.writeSeq = seq }

// Protect re-arms write protection over the chunk so the next modification
// is observed. Pre-copy engines call this after copying a chunk; the
// prediction learning phase calls it after each fault to count episodes.
func (c *Chunk) Protect(p *sim.Proc) { c.dram.Protect(p) }

// DeferProtect re-arms protection as soon as the current write retires —
// safe to call from modification callbacks, which run inside the faulting
// write.
func (c *Chunk) DeferProtect() { c.dram.DeferProtect() }

// Protected reports whether modification tracking is armed.
func (c *Chunk) Protected() bool { return c.dram.Protected() }

// ModSeq returns the current modification sequence number.
func (c *Chunk) ModSeq() uint64 { return c.modSeq }

// StagedSeq returns the sequence captured at the last staging/restore.
func (c *Chunk) StagedSeq() uint64 { return c.cleanSeq }

// payloadRange maps a virtual byte range onto the (possibly scaled) payload.
func (c *Chunk) payloadRange(off, n int64) (int, int) {
	l := int64(c.payload.Len())
	if l == 0 {
		return 0, 0
	}
	if l == c.Size {
		return int(off), int(n)
	}
	lo := off * l / c.Size
	hi := (off + n) * l / c.Size
	if hi <= lo {
		hi = lo + 1
	}
	if hi > l {
		hi = l
	}
	return int(lo), int(hi - lo)
}

// String implements fmt.Stringer.
func (c *Chunk) String() string {
	return fmt.Sprintf("core.Chunk{%s %dB v%d dirty=%v}", c.Name, c.Size, c.Version, c.Dirty())
}
