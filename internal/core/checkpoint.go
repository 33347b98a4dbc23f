package core

import (
	"fmt"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// CkptStats summarizes one checkpoint operation.
type CkptStats struct {
	// BytesCopied is the data moved DRAM→NVM during this call (pre-copied
	// chunks that stayed clean contribute nothing).
	BytesCopied int64
	// ChunksCopied / ChunksSkipped count chunks staged here vs. already
	// staged (or unmodified since the last commit).
	ChunksCopied  int
	ChunksSkipped int
	// Committed counts chunks whose commit record flipped.
	Committed int
	// Duration is the virtual time the call took.
	Duration time.Duration
}

// stageChunk copies one chunk's DRAM working data into its in-progress NVM
// slot: a bandwidth-charged DRAM→NVM copy of the full virtual size, the real
// payload stored durably, a cache flush, and re-arming of write protection.
// rateCap > 0 throttles the copy (background pre-copy streams). The slot
// takes the working payload itself: a Payload is immutable, so the working
// copy, the slot, the buddy replica and the PFS share one value.
func (s *Store) stageChunk(p *sim.Proc, c *Chunk, rateCap float64) int64 {
	target := c.targetSlot()
	k := s.kproc.Kernel()
	// Capture the modification sequence and re-arm write protection BEFORE
	// the copy starts: a store landing while the pre-copy is in flight must
	// fault and mark the chunk dirty again, so it is copied once more — the
	// "additional work" for chunks modified just before the checkpoint step
	// that the paper measures as slightly higher pre-copy data volume.
	// Without arming first, a mid-copy store would be silently absorbed or
	// lost depending on timing.
	seqAtStart := c.modSeq
	invalidated := false
	if c.pending != nil {
		// Staging a lazily-restored chunk (forced checkpoints do this):
		// its committed bytes must be in DRAM before they can be re-staged.
		if err := s.materialize(p, c, false); err != nil {
			panic(fmt.Sprintf("core: lazy restore of %s failed during stage: %v", c.Name, err))
		}
	}
	c.Protect(p)
	if c.slots() == 1 && c.committed >= 0 {
		// Single-version mode overwrites the only copy: invalidate the
		// commit record first so a crash mid-stage is detected rather
		// than silently restoring torn data.
		k.MetaLock.Lock(p)
		s.kproc.Chunks().ClearCommit(p, c.ID)
		k.MetaLock.Unlock(p)
		c.committed = -1
		invalidated = true
	}
	if rateCap > 0 {
		mem.CopyCapped(p, s.dramDevice(), s.nvmDevice(), c.Size, rateCap)
	} else {
		mem.Copy(p, s.dramDevice(), s.nvmDevice(), c.Size)
	}
	data := c.payload
	k.MetaLock.Lock(p)
	s.kproc.Chunks().SetSlot(p, c.ID, target, data)
	k.MetaLock.Unlock(p)
	// Flush processor caches before the data may be marked consistent.
	p.Sleep(s.nvmDevice().FlushCost(c.Size))
	c.stagedSum = data.Checksum(c.Size)
	c.cleanSeq = seqAtStart
	c.stagePending = true
	s.notifyStage(c)
	if invalidated {
		// Single-version overwrite: the previously committed local copy is
		// gone until the next commit flip (lineage marks the tier invalid).
		s.rec.Log(obs.EvChunkStaged, c.Name, c.Size, obs.Int("seq", int64(seqAtStart)), obs.Int("inval", 1))
	} else {
		s.rec.Log(obs.EvChunkStaged, c.Name, c.Size, obs.Int("seq", int64(seqAtStart)))
	}
	s.Counters[cStagedBytes].Add(c.Size)
	s.Counters[cStagedChunks].Add(1)
	// Protection stays armed from the start of the stage; if a mid-copy
	// store faulted, the chunk is already unprotected and dirty, and the
	// next stage re-arms.
	return c.Size
}

// PreCopyChunk stages a chunk ahead of the coordinated checkpoint if it is
// dirty, returning the bytes copied (0 if it was clean). This is the copy
// that pre-copy engines run in the background, optionally rate-capped.
func (s *Store) PreCopyChunk(p *sim.Proc, c *Chunk, rateCap float64) int64 {
	if !c.Persistent || !c.needsStage() {
		return 0
	}
	n := s.stageChunk(p, c, rateCap)
	s.Counters[cPrecopyBytes].Add(n)
	s.Counters[cChunksPrecopied].Add(1)
	return n
}

// ChkptAll is the coordinated local checkpoint — the paper's nvchkptall().
// Every persistent chunk still dirty is staged now (this is the data volume
// pre-copy exists to shrink); then all staged chunks' commit records flip
// atomically under the metadata lock.
func (s *Store) ChkptAll(p *sim.Proc) CkptStats { return s.chkptAll(p, false) }

// ChkptAllForce stages and commits every persistent chunk regardless of
// modification state — a classic coordinated checkpoint without
// NVM-checkpoints' protection-based dirty tracking. It is the 'no pre-copy'
// baseline of Figures 7 and 8 (which is why the baseline moves more data:
// init-only chunks are rewritten every checkpoint).
func (s *Store) ChkptAllForce(p *sim.Proc) CkptStats { return s.chkptAll(p, true) }

func (s *Store) chkptAll(p *sim.Proc, force bool) CkptStats {
	start := p.Now()
	round := s.ckptRound
	s.ckptRound++
	s.rec.Log(obs.EvCheckpointBegin, "", 0, obs.Int("round", int64(round)))
	var st CkptStats
	for _, c := range s.order {
		if !c.Persistent {
			continue
		}
		if force || c.needsStage() {
			st.BytesCopied += s.stageChunk(p, c, 0)
			st.ChunksCopied++
		} else {
			st.ChunksSkipped++
		}
	}
	st.Committed = s.commit(p)
	st.Duration = p.Now() - start
	s.Counters[cCkptBytes].Add(st.BytesCopied)
	s.Counters[cChunksCopied].Add(int64(st.ChunksCopied))
	s.Counters[cChunksSkipped].Add(int64(st.ChunksSkipped))
	s.Counters[cCommits].Add(1)
	s.rec.LogSpan(start, obs.EvCheckpointCommit, "", st.BytesCopied,
		obs.Int("round", int64(round)),
		obs.Int("copied", int64(st.ChunksCopied)),
		obs.Int("skipped", int64(st.ChunksSkipped)),
		obs.Int("dur_us", st.Duration.Microseconds()))
	return st
}

// ChkptID checkpoints a single chunk — the paper's nvchkptid(id).
func (s *Store) ChkptID(p *sim.Proc, id uint64) (CkptStats, error) {
	c, ok := s.chunks[id]
	if !ok {
		return CkptStats{}, fmt.Errorf("%w: id %d", ErrNoChunk, id)
	}
	start := p.Now()
	var st CkptStats
	if c.needsStage() {
		st.BytesCopied = s.stageChunk(p, c, 0)
		st.ChunksCopied = 1
	} else {
		st.ChunksSkipped = 1
	}
	st.Committed = s.commitChunk(p, c)
	st.Duration = p.Now() - start
	s.Counters[cCkptBytes].Add(st.BytesCopied)
	return st, nil
}

// commit flips commit records for every chunk with staged data, under the
// metadata lock shared with the checkpoint helper.
func (s *Store) commit(p *sim.Proc) int {
	n := 0
	for _, c := range s.order {
		n += s.commitChunk(p, c)
	}
	return n
}

func (s *Store) commitChunk(p *sim.Proc, c *Chunk) int {
	if !c.Persistent || !c.stagePending {
		return 0
	}
	k := s.kproc.Kernel()
	k.MetaLock.Lock(p)
	target := c.targetSlot()
	c.Version++
	s.kproc.Chunks().SetCommit(p, c.ID, nvmkernel.CommitRecord{
		Slot:     target,
		Version:  c.Version,
		Checksum: c.stagedSum,
		Size:     c.Size,
		Seq:      c.cleanSeq,
		Name:     c.Name,
	})
	k.MetaLock.Unlock(p)
	c.committed = int8(target)
	c.stagePending = false
	s.rec.Log(obs.EvChunkCommit, c.Name, c.Size,
		obs.Int("seq", int64(c.cleanSeq)), obs.Int("version", int64(c.Version)))
	return 1
}

// tryRestore recovers a chunk's contents from a committed NVM version left
// by a previous incarnation of this process, verifying the checksum. It is
// a no-op when no commit record exists (fresh allocation) or the recorded
// size no longer matches the requested size (the application changed its
// problem configuration).
func (s *Store) tryRestore(p *sim.Proc, c *Chunk) error {
	k := s.kproc.Kernel()
	k.MetaLock.Lock(p)
	rec, ok := s.kproc.Chunks().Commit(p, c.ID)
	k.MetaLock.Unlock(p)
	if !ok || rec.Size != c.Size {
		return nil
	}
	k.MetaLock.Lock(p)
	data := s.kproc.Chunks().Slot(p, c.ID, rec.Slot)
	k.MetaLock.Unlock(p)
	if !data.Valid() {
		return fmt.Errorf("%w: %s has commit record but no data", ErrNoCommitted, c.Name)
	}
	if s.opts.LazyRestore {
		// Defer the data fetch: record where the committed bytes live and
		// materialize on first access.
		c.pending = &pendingRestore{data: data, sum: rec.Checksum}
	} else {
		// Timed NVM→DRAM fetch (reads run near DRAM speed, Table I).
		mem.Copy(p, s.nvmDevice(), s.dramDevice(), c.Size)
		c.payload = c.payload.Overlay(data)
		if data.Checksum(c.Size) != rec.Checksum {
			if s.opts.SalvageCorrupt {
				// Clear the damaged version's commit record and leave the
				// chunk un-restored; the caller's cascade takes it from here.
				k.MetaLock.Lock(p)
				s.kproc.Chunks().ClearCommit(p, c.ID)
				k.MetaLock.Unlock(p)
				s.Counters[cRestoreChecksumErrors].Add(1)
				s.rec.Log(obs.EvChecksumError, c.Name, c.Size,
					obs.Str("action", "salvage"), obs.Int("seq", int64(rec.Seq)))
				return nil
			}
			return fmt.Errorf("%w: %s", ErrChecksum, c.Name)
		}
	}
	c.committed = int8(rec.Slot)
	c.Version = rec.Version
	c.Restored = true
	c.cleanSeq = c.modSeq
	c.Protect(p)
	s.Counters[cRestores].Add(1)
	source := "local"
	if s.opts.LazyRestore {
		source = "lazy"
	}
	// "seq" is the restored payload's generation in the previous
	// incarnation's sequence domain; "reseq" is the chunk's clean sequence in
	// THIS incarnation's domain (sequence numbering restarts per process
	// lifetime), which is what later ship events will reference.
	s.rec.Log(obs.EvRestore, c.Name, c.Size, obs.Str("source", source),
		obs.Int("seq", int64(rec.Seq)), obs.Int("version", int64(rec.Version)),
		obs.Int("reseq", int64(c.cleanSeq)))
	return nil
}

// pendingRestore holds a lazily-restored chunk's committed payload until
// first access.
type pendingRestore struct {
	data nvmkernel.Payload
	sum  uint64
}

// materialize completes a deferred restore: the timed NVM→DRAM copy plus
// checksum verification. overwrite=true skips the data movement entirely —
// the caller is about to clobber the whole chunk anyway.
func (s *Store) materialize(p *sim.Proc, c *Chunk, overwrite bool) error {
	pr := c.pending
	c.pending = nil
	if pr == nil || overwrite {
		s.Counters[cLazyRestoresSkipped].Add(1)
		return nil
	}
	mem.Copy(p, s.nvmDevice(), s.dramDevice(), c.Size)
	c.payload = c.payload.Overlay(pr.data)
	if pr.data.Checksum(c.Size) != pr.sum {
		return fmt.Errorf("%w: %s (lazy)", ErrChecksum, c.Name)
	}
	s.Counters[cLazyRestores].Add(1)
	return nil
}

// adopt installs externally fetched checkpoint data as the chunk's working
// contents at version 0. The chunk is left dirty so the next local
// checkpoint re-establishes a local NVM copy.
func (s *Store) adopt(p *sim.Proc, c *Chunk, data nvmkernel.Payload, source string, counter int) error {
	if int64(data.Len()) > c.Size {
		return fmt.Errorf("core: adopt %s: %d payload bytes exceed chunk size %d",
			c.Name, data.Len(), c.Size)
	}
	c.payload = c.payload.Overlay(data)
	c.pending = nil
	c.Restored = true
	c.Version = 0
	c.markDirty(p)
	s.Counters[counter].Add(1)
	s.rec.Log(obs.EvRestore, c.Name, c.Size, obs.Str("source", source))
	return nil
}

// AdoptRemote installs checkpoint data fetched from a remote node — the
// hard-failure recovery path, when the local NVM was lost with the node.
func (s *Store) AdoptRemote(p *sim.Proc, c *Chunk, data nvmkernel.Payload) error {
	return s.adopt(p, c, data, "remote", cRemoteRestores)
}

// AdoptBottom installs checkpoint data read back from the bottom (PFS)
// tier — the cascade's last rung, when both the local version and the
// remote copy of a chunk are gone.
func (s *Store) AdoptBottom(p *sim.Proc, c *Chunk, data nvmkernel.Payload) error {
	return s.adopt(p, c, data, "bottom", cBottomRestores)
}

// ChunkState is a helper-visible snapshot of one chunk's checkpoint state.
type ChunkState struct {
	ID       uint64
	Name     string
	Size     int64
	ModSeq   uint64
	CleanSeq uint64
	// StagedVersion identifies the staged data generation: helpers ship a
	// chunk when its CleanSeq advanced past what they last sent.
	StagePending bool
	Version      uint64
	Checksum     uint64
}

// Snapshot returns the checkpoint state of all persistent chunks under the
// metadata lock — the interface the asynchronous remote-checkpoint helper
// uses to find dirty chunks (Section V).
func (s *Store) Snapshot(p *sim.Proc) []ChunkState {
	k := s.kproc.Kernel()
	k.MetaLock.Lock(p)
	defer k.MetaLock.Unlock(p)
	out := make([]ChunkState, 0, len(s.order))
	for _, c := range s.order {
		if c.Persistent {
			out = append(out, c.State())
		}
	}
	return out
}

// StagedData returns the payload most recently staged to NVM for a chunk
// (the in-progress version if a stage is pending, otherwise the committed
// one), for the remote helper to ship. ok is false when nothing was ever
// staged. The payload is the stored version itself, shared with every tier
// that holds it.
func (s *Store) StagedData(p *sim.Proc, id uint64) (nvmkernel.Payload, bool) {
	c, ok := s.chunks[id]
	if !ok {
		return nvmkernel.Payload{}, false
	}
	slot := int(c.committed)
	if c.stagePending {
		slot = c.targetSlot()
	}
	if slot < 0 {
		return nvmkernel.Payload{}, false
	}
	k := s.kproc.Kernel()
	k.MetaLock.Lock(p)
	data := s.kproc.Chunks().Slot(p, c.ID, slot)
	k.MetaLock.Unlock(p)
	return data, data.Valid()
}

// ContentChecksum digests every persistent chunk's working payload in
// allocation order — the run-level fingerprint fault-injection tests compare
// against a fault-free twin to prove recovery reconstructed the exact
// application state.
func (s *Store) ContentChecksum() uint64 {
	h := nvmkernel.NewDigest()
	for _, c := range s.order {
		if !c.Persistent {
			continue
		}
		data := c.payload
		if c.pending != nil {
			data = c.pending.data
		}
		h = h.Uint64(c.ID).Payload(data)
	}
	return uint64(h)
}
