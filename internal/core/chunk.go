package core

import (
	"fmt"
	"hash/fnv"
	"strconv"

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
	ID         uint64
	Name       string
	Size       int64
	Persistent bool
	Attached   bool
	// Restored is true when this chunk's contents were recovered from a
	// committed NVM version at allocation time.
	Restored bool
	// Version counts committed checkpoints of this chunk.
	Version uint64
	// ModCount counts observed modification episodes (protection faults),
	// feeding the DCPCP prediction table.
	ModCount int64

	store     *Store
	dram      *nvmkernel.Region
	nvmExtent [2]nvmalloc.Extent
	committed int // committed slot index, -1 before first commit

	// allocSeq is the chunk's place in its store's allocation order (see
	// AllocSeq).
	allocSeq int
	// metaK and dataK cache the chunk's kernel metadata keys, formatted once
	// at creation: every stage, commit and ship looks them up, and they
	// never change.
	metaK string
	dataK [2]string

	modSeq       uint64
	cleanSeq     uint64
	stagePending bool   // staged data awaiting the next commit flip
	stagedSum    uint64 // checksum of staged payload
	writeSeq     uint64 // content pattern generator
	pending      *pendingRestore
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

// Kernel metadata keys: a chunk's commit record lives under "cmeta/<id>" and
// its version slots under "cdata/<id>/<slot>", with <id> in decimal. These
// helpers are the one definition of both formats.
const metaKeyPrefix = "cmeta/"

func metaKeyOf(id uint64) string { return metaKeyPrefix + strconv.FormatUint(id, 10) }

func dataKeyOf(id uint64, slot int) string {
	return "cdata/" + strconv.FormatUint(id, 10) + "/" + strconv.Itoa(slot)
}

func (c *Chunk) dramID() string          { return fmt.Sprintf("work/%d", c.ID) }
func (c *Chunk) metaKey() string         { return c.metaK }
func (c *Chunk) dataKey(slot int) string { return c.dataK[slot] }

// AllocSeq returns the chunk's place in its store's allocation order: 1 for
// the first chunk the store ever held, rising with each allocation and never
// reused. It is 0 before the chunk joins the store and after NVDelete.
func (c *Chunk) AllocSeq() int { return c.allocSeq }

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

// Committed reports whether any checkpoint version has been committed.
func (c *Chunk) Committed() bool { return c.committed >= 0 }

// Data exposes the DRAM working payload (real bytes; possibly smaller than
// Size under payload scaling).
func (c *Chunk) Data() []byte { return c.dram.Data }

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
			c.store.rec.Emit(obs.EvChunkReDirtied, c.Name, c.Size,
				map[string]string{"seq": u64str(c.modSeq + 1)})
			c.store.Counters[cRedirtied].Add(1)
		} else {
			c.store.rec.Emit(obs.EvChunkDirty, c.Name, c.Size,
				map[string]string{"seq": u64str(c.modSeq + 1)})
		}
	}
	c.modSeq++
	c.ModCount++
	c.store.notifyModify(c)
}

// Write models the application storing to [off, off+n) of the chunk during
// computation. It costs nothing except a protection fault when the chunk was
// clean (application stores run at DRAM speed as part of compute). The real
// payload bytes covering the range are mutated deterministically so that
// checkpoints and restores can be verified end to end.
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
	lo, ln := c.payloadRange(off, n)
	for i := lo; i < lo+ln; i++ {
		c.dram.Data[i] = byte(uint64(i)*2654435761 + c.writeSeq*97 + c.ID)
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

// Read models the application reading the chunk's contents. Reads cost
// nothing (data is in DRAM) except when a lazy restore is pending, in which
// case the deferred NVM→DRAM fetch happens now.
func (c *Chunk) Read(p *sim.Proc, off, n int64) error {
	if off < 0 || n < 0 || off+n > c.Size {
		return fmt.Errorf("core: read [%d,%d) out of chunk %s size %d", off, off+n, c.Name, c.Size)
	}
	if c.pending != nil {
		return c.store.materialize(p, c, false)
	}
	return nil
}

// RestorePending reports whether a lazy restore has not yet materialized.
func (c *Chunk) RestorePending() bool { return c.pending != nil }

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

// Region exposes the DRAM working region (for the page-level ablation).
func (c *Chunk) Region() *nvmkernel.Region { return c.dram }

// ModSeq returns the current modification sequence number.
func (c *Chunk) ModSeq() uint64 { return c.modSeq }

// StagedSeq returns the sequence captured at the last staging/restore.
func (c *Chunk) StagedSeq() uint64 { return c.cleanSeq }

// payloadRange maps a virtual byte range onto the (possibly scaled) payload.
func (c *Chunk) payloadRange(off, n int64) (int, int) {
	l := int64(len(c.dram.Data))
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

// checksum hashes a payload together with the chunk's virtual size, so a
// size change never collides with a content change.
func checksum(data []byte, size int64) uint64 {
	h := fnv.New64a()
	var sz [8]byte
	for i := 0; i < 8; i++ {
		sz[i] = byte(size >> (8 * i))
	}
	h.Write(sz[:])
	h.Write(data)
	return h.Sum64()
}

// u64str renders a sequence/version number for event attributes.
func u64str(v uint64) string { return strconv.FormatUint(v, 10) }

// String implements fmt.Stringer.
func (c *Chunk) String() string {
	return fmt.Sprintf("core.Chunk{%s %dB v%d dirty=%v}", c.Name, c.Size, c.Version, c.Dirty())
}
