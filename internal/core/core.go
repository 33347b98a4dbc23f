// Package core implements the NVM-checkpoint user library — the paper's
// Table III interface. Applications allocate checkpoint variables as chunks:
// each chunk has a DRAM working copy the application computes on (shadow
// buffering, Figure 3) and up to two persistent NVM versions (a committed
// checkpoint and an in-progress one), placed in the process's NVM heap by the
// jemalloc-style allocator. Chunk-granularity write protection detects
// modifications: the first store to a clean chunk takes one protection fault,
// marks the whole chunk dirty, and unprotects it — the cheap dirty tracking
// that makes pre-copy affordable (Section IV).
//
// A local checkpoint (ChkptAll) stages every dirty persistent chunk into the
// in-progress NVM version — charging the DRAM→NVM copy to the NVM device's
// shared write bandwidth — flushes caches, then atomically flips commit
// records, so a crash mid-checkpoint always recovers the previous committed
// version. Pre-copy engines stage chunks ahead of time through the same path
// (PreCopyChunk), leaving only re-dirtied chunks for checkpoint time.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmalloc"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// Library errors.
var (
	ErrChunkExists = errors.New("core: chunk already allocated")
	ErrNoChunk     = errors.New("core: no such chunk")
	ErrChecksum    = errors.New("core: checkpoint checksum mismatch")
	ErrNoCommitted = errors.New("core: no committed checkpoint version")
	ErrBadDims     = errors.New("core: non-positive dimensions")
)

// GenID derives a stable chunk identifier from a variable name — the paper's
// genid(varname).
func GenID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// DefaultPayloadCap bounds the real bytes backing each chunk. Timing always
// uses the full virtual size; the payload is what checksums and restore
// verification actually check. Unit tests may set Options.PayloadCap to the
// chunk size for fully real contents.
const DefaultPayloadCap = 64 * 1024

// Options configures a Store.
type Options struct {
	// PayloadCap caps the real payload bytes per chunk (0 = DefaultPayloadCap).
	PayloadCap int
	// SingleVersion keeps only one NVM version per chunk — the paper's
	// degraded mode when local NVM space is constrained: a crash during
	// checkpointing then loses the local copy and recovery must fall back
	// to the remote node.
	SingleVersion bool
	// LazyRestore defers the NVM→DRAM copy of restored chunks until first
	// access — the recovery optimization the paper leaves as future work
	// ("read speeds of NVMs are comparable to DRAM"): the application
	// resumes immediately and pays per-chunk restore cost on touch. A
	// chunk whose first post-restart access overwrites it entirely never
	// pays the copy at all.
	LazyRestore bool
	// SalvageCorrupt turns a restore-time checksum mismatch from a fatal
	// error into a degraded-mode signal: the damaged version's commit
	// record is cleared and the chunk is left un-restored, so the caller's
	// recovery cascade can fetch it from the next tier (buddy, then PFS)
	// instead of failing the restart. Lazy materialization stays strict —
	// by first touch the application is already running and there is no
	// cascade to fall back on.
	SalvageCorrupt bool
}

// Store is one process's (rank's) checkpoint library instance.
type Store struct {
	env   *sim.Env
	kproc *nvmkernel.Process
	alloc *nvmalloc.Allocator
	opts  Options

	chunks map[uint64]*Chunk
	order  []*Chunk // allocation order, for deterministic iteration
	allocs int      // chunks ever added; the last AllocSeq handed out

	onModify []func(*Chunk)
	onStage  []func(*Chunk)

	// rec publishes events and registry metrics; nil outside instrumented
	// runs (every method on a nil recorder is a no-op).
	rec *obs.Recorder
	// ckptRound numbers this store's coordinated checkpoints for the event
	// stream's per-round grouping.
	ckptRound int

	// Counters are the store's counts (storeCounters), readable by name and
	// booked under the same names into the attached recorder's registry.
	Counters obs.Counters
}

// Store counters, indexing Store.Counters.
const (
	cStagedBytes = iota
	cStagedChunks
	cPrecopyBytes
	cChunksPrecopied
	cCkptBytes
	cChunksCopied
	cChunksSkipped
	cCommits
	cRedirtied
	cRestores
	cRestoreChecksumErrors
	cLazyRestores
	cLazyRestoresSkipped
	cRemoteRestores
	cBottomRestores
)

var storeCounters = obs.NewCounterSet("", []string{
	cStagedBytes:           "staged_bytes",
	cStagedChunks:          "staged_chunks",
	cPrecopyBytes:          "precopy_bytes",
	cChunksPrecopied:       "chunks_precopied",
	cCkptBytes:             "ckpt_bytes",
	cChunksCopied:          "chunks_copied",
	cChunksSkipped:         "chunks_skipped",
	cCommits:               "commits",
	cRedirtied:             "redirtied_chunks",
	cRestores:              "restores",
	cRestoreChecksumErrors: "restore_checksum_errors",
	cLazyRestores:          "lazy_restores",
	cLazyRestoresSkipped:   "lazy_restores_skipped",
	cRemoteRestores:        "remote_restores",
	cBottomRestores:        "bottom_restores",
}...)

// SetRecorder attaches the observability handle this store publishes
// checkpoint events and metrics through. Call it before allocations so
// restore events are captured.
func (s *Store) SetRecorder(r *obs.Recorder) {
	s.rec = r
	s.Counters.SetRecorder(r)
}

// NewStore builds a checkpoint library instance for the attached kernel
// process.
func NewStore(kproc *nvmkernel.Process, opts Options) *Store {
	if opts.PayloadCap == 0 {
		opts.PayloadCap = DefaultPayloadCap
	}
	// A restarted process re-initializes its NVM heap: stale heap regions
	// from the previous incarnation are unmapped (their capacity would
	// otherwise leak), while checkpoint data and commit records live in the
	// kernel's persistent chunk table and survive untouched.
	for _, id := range kproc.NVMRegions() {
		if strings.HasPrefix(id, "ckpt-heap/") {
			_ = kproc.NVMUnmap(nil, id)
		}
	}
	return &Store{
		env:      kproc.Kernel().Env(),
		kproc:    kproc,
		alloc:    nvmalloc.New(kproc, "ckpt-heap"),
		opts:     opts,
		chunks:   make(map[uint64]*Chunk),
		Counters: storeCounters.New(),
	}
}

// Kernel returns the node kernel this store runs on.
func (s *Store) Kernel() *nvmkernel.Kernel { return s.kproc.Kernel() }

// Proc returns the kernel process identity.
func (s *Store) Proc() *nvmkernel.Process { return s.kproc }

// OnModify registers a callback fired on the first modification of a clean
// chunk (i.e. on each chunk-level protection fault). Pre-copy engines use it
// to maintain dirty sets and prediction counters.
func (s *Store) OnModify(fn func(*Chunk)) { s.onModify = append(s.onModify, fn) }

// OnStage registers a callback fired whenever a chunk's staged sequence
// (StagedSeq) is assigned: at each stage to NVM, and when a restored chunk
// joins the store. The remote helper uses it to queue ship candidates
// instead of rescanning every chunk. Callbacks run in the staging process and
// must not block.
func (s *Store) OnStage(fn func(*Chunk)) { s.onStage = append(s.onStage, fn) }

// Chunks returns all chunks in allocation order.
func (s *Store) Chunks() []*Chunk {
	return append([]*Chunk(nil), s.order...)
}

// NumChunks returns how many chunks the store holds.
func (s *Store) NumChunks() int { return len(s.order) }

// ChunkAt returns the i-th chunk in allocation order, 0 <= i < NumChunks().
// Together with NumChunks it walks the store without the copy Chunks makes.
func (s *Store) ChunkAt(i int) *Chunk { return s.order[i] }

// Chunk returns the chunk with the given id, or nil.
func (s *Store) Chunk(id uint64) *Chunk { return s.chunks[id] }

// CheckpointSize returns the total virtual size of persistent chunks — the
// per-process checkpoint data size D of the performance model.
func (s *Store) CheckpointSize() int64 {
	var total int64
	for _, c := range s.order {
		if c.Persistent {
			total += c.Size
		}
	}
	return total
}

// NVAlloc allocates (or, on restart, recovers) a checkpoint chunk — the
// paper's nvalloc(id, size, pflg). With persist=true the chunk participates
// in checkpoints, and if a committed version already exists in this node's
// NVM (from before a restart) its contents are restored into the fresh DRAM
// working copy and verified against the stored checksum.
func (s *Store) NVAlloc(p *sim.Proc, name string, size int64, persist bool) (*Chunk, error) {
	id := GenID(name)
	if _, ok := s.chunks[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrChunkExists, name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("%w: %s size %d", ErrBadDims, name, size)
	}
	c, err := s.newChunk(p, id, name, size, persist, false)
	if err != nil {
		return nil, err
	}
	if persist {
		if err := s.tryRestore(p, c); err != nil {
			return nil, err
		}
	}
	s.insert(c)
	if c.Restored {
		// Announced only now: the restore assigned the staged sequence, but
		// the chunk was not yet visible to anyone walking the store.
		s.notifyStage(c)
	}
	return c, nil
}

// insert appends a chunk to the store's allocation order.
func (s *Store) insert(c *Chunk) {
	s.allocs++
	c.allocSeq = s.allocs
	s.chunks[c.ID] = c
	s.order = append(s.order, c)
}

// NV2DAlloc is the Fortran-style 2D allocation wrapper: a dim1 x dim2 array
// of elem-byte elements.
func (s *Store) NV2DAlloc(p *sim.Proc, name string, dim1, dim2, elem int64) (*Chunk, error) {
	if dim1 <= 0 || dim2 <= 0 || elem <= 0 {
		return nil, fmt.Errorf("%w: %s %dx%dx%d", ErrBadDims, name, dim1, dim2, elem)
	}
	return s.NVAlloc(p, name, dim1*dim2*elem, true)
}

// NVAttach creates a shadow NVM chunk for memory the application already
// manages itself — the lazy path for codes (like LAMMPS) with custom memory
// management where checkpoint sizes are not statically known.
func (s *Store) NVAttach(p *sim.Proc, name string, size int64) (*Chunk, error) {
	id := GenID(name)
	if _, ok := s.chunks[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrChunkExists, name)
	}
	c, err := s.newChunk(p, id, name, size, true, true)
	if err != nil {
		return nil, err
	}
	s.insert(c)
	return c, nil
}

// NVRealloc grows (or shrinks) a chunk, preserving the DRAM payload prefix
// and discarding staged-but-uncommitted NVM data (the next checkpoint
// restages at the new size).
func (s *Store) NVRealloc(p *sim.Proc, c *Chunk, newSize int64) error {
	if newSize <= 0 {
		return fmt.Errorf("%w: realloc %s to %d", ErrBadDims, c.Name, newSize)
	}
	if newSize == c.Size {
		return nil
	}
	for i := 0; i < c.slots(); i++ {
		if c.nvmExtent[i].Size != 0 {
			if err := s.alloc.Free(p, c.nvmExtent[i].Addr); err != nil {
				return err
			}
		}
		ext, err := s.alloc.Alloc(p, newSize)
		if err != nil {
			return err
		}
		c.nvmExtent[i] = ext
	}
	if err := s.kproc.DRAMFree(c.dramID()); err != nil {
		return err
	}
	c.Size = newSize
	dram, err := s.kproc.DRAMAlloc(c.dramID(), newSize, 0)
	if err != nil {
		return err
	}
	c.payload = nvmkernel.Zeros(s.payloadLen(newSize)).Overlay(c.payload)
	c.dram = dram
	c.installFaultHandler()
	c.stagePending = false
	c.markDirty(p)
	return nil
}

// NVDelete removes a chunk and all its NVM state ('nvdelete').
func (s *Store) NVDelete(p *sim.Proc, c *Chunk) error {
	if _, ok := s.chunks[c.ID]; !ok {
		return fmt.Errorf("%w: %s", ErrNoChunk, c.Name)
	}
	delete(s.chunks, c.ID)
	for i, oc := range s.order {
		if oc == c {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	c.allocSeq = 0
	if err := s.kproc.DRAMFree(c.dramID()); err != nil {
		return err
	}
	for i := 0; i < c.slots(); i++ {
		if c.nvmExtent[i].Size != 0 {
			if err := s.alloc.Free(p, c.nvmExtent[i].Addr); err != nil {
				return err
			}
		}
	}
	k := s.kproc.Kernel()
	k.MetaLock.Lock(p)
	s.kproc.Chunks().ClearCommit(p, c.ID)
	for i := 0; i < c.slots(); i++ {
		s.kproc.Chunks().SetSlot(p, c.ID, i, nvmkernel.Payload{})
	}
	k.MetaLock.Unlock(p)
	return nil
}

// newChunk builds a chunk: DRAM working region plus NVM heap extents for its
// version slots. The region carries no payload bytes; the chunk's all-zero
// working payload is a shared read-only page until the first write.
func (s *Store) newChunk(p *sim.Proc, id uint64, name string, size int64, persist, attached bool) (*Chunk, error) {
	c := &Chunk{
		ID:         id,
		Name:       name,
		Size:       size,
		Persistent: persist,
		Attached:   attached,
		store:      s,
		committed:  -1,
		payload:    nvmkernel.Zeros(s.payloadLen(size)),
	}
	dram, err := s.kproc.DRAMAlloc(c.dramID(), size, 0)
	if err != nil {
		return nil, err
	}
	c.dram = dram
	if persist {
		for i := 0; i < c.slots(); i++ {
			ext, err := s.alloc.Alloc(p, size)
			if err != nil {
				// Roll back so a failed alloc leaks nothing.
				_ = s.kproc.DRAMFree(c.dramID())
				for j := 0; j < i; j++ {
					_ = s.alloc.Free(p, c.nvmExtent[j].Addr)
				}
				return nil, err
			}
			c.nvmExtent[i] = ext
		}
	}
	c.installFaultHandler()
	return c, nil
}

// payloadLen returns the real payload length for a chunk of the given
// virtual size.
func (s *Store) payloadLen(size int64) int {
	if size < int64(s.opts.PayloadCap) {
		return int(size)
	}
	return s.opts.PayloadCap
}

// notifyModify runs registered modification callbacks.
func (s *Store) notifyModify(c *Chunk) {
	for _, fn := range s.onModify {
		fn(c)
	}
}

// notifyStage runs registered stage callbacks.
func (s *Store) notifyStage(c *Chunk) {
	for _, fn := range s.onStage {
		fn(c)
	}
}

// nvmDevice returns the node NVM device.
func (s *Store) nvmDevice() *mem.Device { return s.kproc.Kernel().NVM }

// dramDevice returns the node DRAM device.
func (s *Store) dramDevice() *mem.Device { return s.kproc.Kernel().DRAM }
