// Package nvmkernel emulates the paper's Linux NVM kernel manager: the
// OS-level component that exposes NVM as virtual memory. It provides
// per-process NVM containers mapped with an nvmmap-like call, page tables
// with chunk-granularity write protection and fault delivery, and the
// per-process persistent metadata of Section V: a ChunkTable of typed chunk
// records keyed by chunk ID (a commit record and two version slots each),
// beside a few named values. Both survive process restarts and node reboots
// (soft failures) but not hard node failures. The paper's per-page 'nvdirty'
// bits are not modelled: the remote helper tracks what its buddy lacks per
// chunk (internal/remote).
//
// Cost accounting follows the paper's split: control-path costs (user↔kernel
// transitions, protection faults, mprotect calls) are charged here in virtual
// time; bulk data movement is charged by the caller through the mem package's
// bandwidth models, so nothing is double-counted.
package nvmkernel

import (
	"errors"
	"fmt"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// Control-path cost defaults. The fault cost is the paper's "6-12 usec" per
// protection fault; syscall cost is a user↔kernel round trip.
const (
	DefaultFaultCost   = 9 * time.Microsecond
	DefaultSyscallCost = 300 * time.Nanosecond
	DefaultProtectCost = 1 * time.Microsecond // one mprotect call
)

// Common kernel errors.
var (
	ErrNoSuchRegion = errors.New("nvmkernel: no such region")
	ErrExists       = errors.New("nvmkernel: region already mapped")
	ErrNoHandler    = errors.New("nvmkernel: write fault with no handler installed")
	ErrNVMLost      = errors.New("nvmkernel: NVM contents lost (hard failure)")
)

// RegionKind says which device backs a region.
type RegionKind uint8

const (
	// DRAMRegion backs the working copy the application computes on.
	DRAMRegion RegionKind = iota
	// NVMRegion backs a persistent shadow chunk.
	NVMRegion
)

func (k RegionKind) String() string {
	if k == NVMRegion {
		return "nvm"
	}
	return "dram"
}

// FaultHandler is invoked (in the faulting process's context, before the
// write proceeds) when a store hits a write-protected page. page is the index
// within the region. Handlers typically unprotect the whole region and mark
// the owning chunk dirty — that is the paper's chunk-level protection.
type FaultHandler func(p *sim.Proc, r *Region, page int)

// Kernel is one node's NVM manager.
type Kernel struct {
	env  *sim.Env
	NVM  *mem.Device
	DRAM *mem.Device

	// MetaLock serializes metadata access between application processes
	// and the asynchronous checkpoint helper, as in the paper.
	MetaLock *sim.Mutex

	// Costs are configurable for the page-vs-chunk ablation.
	FaultCost   time.Duration
	SyscallCost time.Duration
	ProtectCost time.Duration

	// Counts of system calls, protection faults and hard failures.
	Syscalls, ProtectionFaults, HardFailures int64

	store map[string]*procStore // persistent per-process state, by name
	procs map[string]*Process   // currently attached processes
}

// procStore is what NVM remembers about a process across restarts.
type procStore struct {
	regions map[string]*Region
	meta    map[string]any
	chunks  *ChunkTable
}

// New builds a kernel managing the given devices.
func New(env *sim.Env, dram, nvm *mem.Device) *Kernel {
	return &Kernel{
		env:         env,
		NVM:         nvm,
		DRAM:        dram,
		MetaLock:    sim.NewMutex(env),
		FaultCost:   DefaultFaultCost,
		SyscallCost: DefaultSyscallCost,
		ProtectCost: DefaultProtectCost,
		store:       make(map[string]*procStore),
		procs:       make(map[string]*Process),
	}
}

// Env returns the simulation environment.
func (k *Kernel) Env() *sim.Env { return k.env }

func (k *Kernel) syscall(p *sim.Proc) {
	k.Syscalls++
	if p != nil {
		p.Sleep(k.SyscallCost)
	}
}

// Attach connects a process (by persistent name) to the kernel, creating its
// store on first attach. Re-attaching after a restart finds surviving NVM
// regions.
func (k *Kernel) Attach(name string) *Process {
	if _, ok := k.procs[name]; ok {
		panic("nvmkernel: process " + name + " attached twice")
	}
	ps, ok := k.store[name]
	if !ok {
		chunks := &ChunkTable{k: k, index: make(map[uint64]int32)}
		ps = &procStore{regions: make(map[string]*Region), meta: make(map[string]any), chunks: chunks}
		k.store[name] = ps
	}
	proc := &Process{k: k, name: name, store: ps, dram: make(map[string]*Region)}
	k.procs[name] = proc
	return proc
}

// HardFail models an unrecoverable node failure: all NVM contents and
// metadata are lost and every attached process is detached.
func (k *Kernel) HardFail() {
	for _, ps := range k.store {
		for _, r := range ps.regions {
			k.NVM.Release(r.VirtualSize)
		}
	}
	k.store = make(map[string]*procStore)
	k.detachAll()
	k.HardFailures++
}

// SoftReset models a node reboot or process-group crash: DRAM contents are
// lost, NVM survives. Attached processes are detached and must re-Attach.
func (k *Kernel) SoftReset() {
	k.detachAll()
}

func (k *Kernel) detachAll() {
	for name := range k.procs {
		k.procs[name].releaseDRAM()
	}
	k.procs = make(map[string]*Process)
	// A process killed while holding the metadata lock would otherwise
	// leave it held forever; all lock users are dead at reset time.
	k.MetaLock = sim.NewMutex(k.env)
}

// Process is a process's view of the kernel: its address space of DRAM
// regions plus its persistent NVM container.
type Process struct {
	k     *Kernel
	name  string
	store *procStore
	dram  map[string]*Region
}

// Name returns the process's persistent identity.
func (pr *Process) Name() string { return pr.name }

// Kernel returns the owning kernel.
func (pr *Process) Kernel() *Kernel { return pr.k }

func (pr *Process) releaseDRAM() {
	for id, r := range pr.dram {
		pr.k.DRAM.Release(r.VirtualSize)
		delete(pr.dram, id)
	}
}

// NVMMap maps (creating if absent) a persistent NVM region of virtualSize
// bytes. It reports whether the region already existed — after a restart
// this is how checkpoint data is found again. Charged as one syscall (the
// paper's 'nvmmap').
func (pr *Process) NVMMap(p *sim.Proc, id string, virtualSize int64) (*Region, bool, error) {
	pr.k.syscall(p)
	if r, ok := pr.store.regions[id]; ok {
		return r, true, nil
	}
	if err := pr.k.NVM.Reserve(virtualSize); err != nil {
		return nil, false, err
	}
	r := newRegion(pr, id, NVMRegion, virtualSize, 0)
	pr.store.regions[id] = r
	return r, false, nil
}

// NVMUnmap deletes a persistent region and releases its space ('nvdelete').
func (pr *Process) NVMUnmap(p *sim.Proc, id string) error {
	pr.k.syscall(p)
	r, ok := pr.store.regions[id]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoSuchRegion, pr.name, id)
	}
	delete(pr.store.regions, id)
	pr.k.NVM.Release(r.VirtualSize)
	return nil
}

// NVMRegions returns the ids of all mapped NVM regions (restart discovery).
func (pr *Process) NVMRegions() []string {
	ids := make([]string, 0, len(pr.store.regions))
	for id := range pr.store.regions {
		ids = append(ids, id)
	}
	return ids
}

// DRAMAlloc allocates a volatile region (ordinary heap memory; no syscall
// cost — the allocator amortizes brk/mmap).
func (pr *Process) DRAMAlloc(id string, virtualSize int64, payloadSize int) (*Region, error) {
	if _, ok := pr.dram[id]; ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrExists, pr.name, id)
	}
	if err := pr.k.DRAM.Reserve(virtualSize); err != nil {
		return nil, err
	}
	r := newRegion(pr, id, DRAMRegion, virtualSize, payloadSize)
	pr.dram[id] = r
	return r, nil
}

// DRAMFree releases a volatile region.
func (pr *Process) DRAMFree(id string) error {
	r, ok := pr.dram[id]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoSuchRegion, pr.name, id)
	}
	delete(pr.dram, id)
	pr.k.DRAM.Release(r.VirtualSize)
	return nil
}

// SetMeta stores a named metadata value in the process's persistent NVM
// metadata area. Callers must hold MetaLock when the helper may be reading
// concurrently.
func (pr *Process) SetMeta(p *sim.Proc, key string, v any) {
	pr.k.syscall(p)
	pr.store.meta[key] = v
}

// GetMeta loads a named metadata value; ok is false if absent or lost.
func (pr *Process) GetMeta(p *sim.Proc, key string) (any, bool) {
	pr.k.syscall(p)
	v, ok := pr.store.meta[key]
	return v, ok
}

// Chunks returns the process's persistent chunk table.
func (pr *Process) Chunks() *ChunkTable { return pr.store.chunks }

// Chunks lets another process (the checkpoint helper, or fault injection)
// reach a process's chunk table by name — the paper's "system interface
// which loads the entire metadata structure to the [helper] process address
// space". It is nil for a process with no persistent state on this node.
func (k *Kernel) Chunks(procName string) *ChunkTable {
	if ps, ok := k.store[procName]; ok {
		return ps.chunks
	}
	return nil
}

// ProcessNames lists processes with persistent state on this node.
func (k *Kernel) ProcessNames() []string {
	names := make([]string, 0, len(k.store))
	for n := range k.store {
		names = append(names, n)
	}
	return names
}

// CommitRecord is a chunk's durable commit pointer: which version slot holds
// the committed payload, its version number, checksum and size. Writing it is
// the atomic commit point of a checkpoint.
type CommitRecord struct {
	Slot     int
	Version  uint64
	Checksum uint64
	Size     int64
	// Seq is the modification-sequence generation the committed payload
	// captured — the causal identity lineage tracing follows across tiers.
	Seq uint64
	// Name is the chunk's variable name, carried so post-mortem inspection
	// (corruption injection, lineage) can name victims without a live store.
	Name string
}

// ChunkTable is a process's persistent per-chunk metadata, keyed by chunk ID
// (Section V's metadata structure). Every access but IDs is one syscall;
// callers hold MetaLock when the helper may be reading concurrently.
//
// Records are never removed (a cleared commit record stays listed by IDs),
// so they are numbered in order of creation and stored, packed, in blocks
// of recBlock; a map from chunk ID to record number finds them. Blocks
// grow a table without copying it and leave less than one block unused.
type ChunkTable struct {
	k      *Kernel
	index  map[uint64]int32
	blocks []*[recBlock]chunkRecord
}

const recBlock = 8

// chunkRecord is one chunk's commit record and version slots. The commit
// record's slot index and the live and written bits share flags.
type chunkRecord struct {
	version, checksum, seq uint64
	size                   int64
	name                   string
	slots                  [2]Payload // version payloads; the zero Payload is an empty slot
	flags                  uint8
}

// chunkRecord flags. recLive is clear before the first commit and after a
// clear; recWritten stays set once the commit record was written or
// cleared at all; recSlot1 is the commit record's Slot.
const (
	recLive uint8 = 1 << iota
	recWritten
	recSlot1
)

// rec returns chunk id's record, creating it when create is set; without
// create it is nil for a chunk the table has never seen.
func (t *ChunkTable) rec(id uint64, create bool) *chunkRecord {
	i, ok := t.index[id]
	if !ok {
		if !create {
			return nil
		}
		i = int32(len(t.index))
		if i%recBlock == 0 {
			t.blocks = append(t.blocks, new([recBlock]chunkRecord))
		}
		t.index[id] = i
	}
	return &t.blocks[i/recBlock][i%recBlock]
}

// Commit loads chunk id's commit record; ok is false if none is live.
func (t *ChunkTable) Commit(p *sim.Proc, id uint64) (CommitRecord, bool) {
	t.k.syscall(p)
	r := t.rec(id, false)
	if r == nil || r.flags&recWritten == 0 {
		return CommitRecord{}, false
	}
	rec := CommitRecord{Version: r.version, Checksum: r.checksum, Size: r.size, Seq: r.seq, Name: r.name}
	if r.flags&recSlot1 != 0 {
		rec.Slot = 1
	}
	return rec, r.flags&recLive != 0
}

// SetCommit writes chunk id's commit record: the atomic commit flip.
func (t *ChunkTable) SetCommit(p *sim.Proc, id uint64, rec CommitRecord) {
	t.setCommit(p, id, rec, recLive)
}

// ClearCommit invalidates chunk id's commit record: no version of the chunk
// restores until the next SetCommit.
func (t *ChunkTable) ClearCommit(p *sim.Proc, id uint64) {
	t.setCommit(p, id, CommitRecord{}, 0)
}

func (t *ChunkTable) setCommit(p *sim.Proc, id uint64, rec CommitRecord, live uint8) {
	t.k.syscall(p)
	flags := recWritten | live
	switch rec.Slot {
	case 0:
	case 1:
		flags |= recSlot1
	default:
		panic(fmt.Sprintf("nvmkernel: commit record slot %d out of range", rec.Slot))
	}
	r := t.rec(id, true)
	r.version, r.checksum, r.size, r.seq, r.name = rec.Version, rec.Checksum, rec.Size, rec.Seq, rec.Name
	r.flags = flags
}

// Slot loads the payload in a version slot of chunk id, the zero Payload if
// it is empty.
func (t *ChunkTable) Slot(p *sim.Proc, id uint64, slot int) Payload {
	t.k.syscall(p)
	if r := t.rec(id, false); r != nil {
		return r.slots[slot]
	}
	return Payload{}
}

// SetSlot stores data as the payload in a version slot of chunk id; the zero
// Payload empties the slot.
func (t *ChunkTable) SetSlot(p *sim.Proc, id uint64, slot int, data Payload) {
	t.k.syscall(p)
	t.rec(id, true).slots[slot] = data
}

// IDs lists, in no particular order, the chunks whose commit record was
// ever written, live or cleared.
func (t *ChunkTable) IDs() []uint64 {
	ids := make([]uint64, 0, len(t.index))
	for id, i := range t.index {
		if t.blocks[i/recBlock][i%recBlock].flags&recWritten != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}
