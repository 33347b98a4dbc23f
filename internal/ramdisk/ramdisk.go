// Package ramdisk models the baseline the paper argues against: checkpoints
// written through a file-system interface to a DRAM-backed ramdisk. Although
// the bits land in the same DRAM as a memory checkpoint, every write pays
// user↔kernel transitions, per-page kernel bookkeeping partly under shared
// VFS locks (contended across the node's cores), and serialization copies —
// the costs the MADBench2 motivation experiment in Section IV measures:
// ~3x more kernel synchronization calls, ~31% more lock waiting, and up to
// 46% slower checkpoints at 300 MB/core.
package ramdisk

import (
	"errors"
	"fmt"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// Cost defaults, calibrated against the paper's MADBench2 observations.
const (
	// DefaultSyscallCost is one user↔kernel round trip.
	DefaultSyscallCost = 300 * time.Nanosecond
	// DefaultAllocPerPage is kernel page allocation work per 4 KB page
	// (performed outside the shared locks; allocation is mostly per-CPU).
	DefaultAllocPerPage = 100 * time.Nanosecond
	// DefaultInsertPerPage is page-cache (radix tree) insertion work per
	// page, also mostly parallel.
	DefaultInsertPerPage = 50 * time.Nanosecond
	// DefaultLockedPerPage is the residual per-page work that must hold a
	// shared kernel lock (batched tree-node updates, superblock counters);
	// this is what the node's cores contend on.
	DefaultLockedPerPage = 10 * time.Nanosecond
	// DefaultSerializationFraction is the extra data movement the I/O path
	// performs beyond the single payload copy (bounce buffering, iovec
	// marshalling) for small files; it grows toward roughly twice this as
	// files outgrow the caches (see serFraction), which is what widens the
	// ramdisk-vs-memory gap with checkpoint size in the MADBench experiment.
	DefaultSerializationFraction = 0.25
	// serGrowthScale is the file size at which half the serialization
	// growth has kicked in.
	serGrowthScale = 150 << 20
)

// Errors.
var (
	ErrClosed    = errors.New("ramdisk: file closed")
	ErrNoFile    = errors.New("ramdisk: no such file")
	ErrShortRead = errors.New("ramdisk: read past end of file")
)

// FS is one node's ramdisk file system.
type FS struct {
	env  *sim.Env
	dram *mem.Device

	// allocLock and mapLock are the shared kernel locks every writer
	// contends on; their WaitTime fields feed the lock-wait comparison.
	allocLock *sim.Mutex
	mapLock   *sim.Mutex

	SyscallCost           time.Duration
	AllocPerPage          time.Duration
	InsertPerPage         time.Duration
	LockedPerPage         time.Duration
	SerializationFraction float64

	files map[string]*inode

	// KernelSyncCalls counts kernel synchronization points (each write
	// takes the inode, allocation and mapping locks); BytesWritten counts
	// bytes written.
	KernelSyncCalls, BytesWritten int64
}

type inode struct {
	name string
	size int64
}

// New creates a ramdisk over the node's DRAM device.
func New(env *sim.Env, dram *mem.Device) *FS {
	return &FS{
		env:                   env,
		dram:                  dram,
		allocLock:             sim.NewMutex(env),
		mapLock:               sim.NewMutex(env),
		SyscallCost:           DefaultSyscallCost,
		AllocPerPage:          DefaultAllocPerPage,
		InsertPerPage:         DefaultInsertPerPage,
		LockedPerPage:         DefaultLockedPerPage,
		SerializationFraction: DefaultSerializationFraction,
		files:                 make(map[string]*inode),
	}
}

// serFraction returns the serialization surcharge for a file of the given
// size: the base fraction, growing by up to another base's worth as the file
// outgrows cache-resident bounce buffers.
func (fs *FS) serFraction(fileSize int64) float64 {
	growth := float64(fileSize) / float64(fileSize+serGrowthScale)
	return fs.SerializationFraction * (1 + growth)
}

// LockWaitTime returns total time processes spent waiting on the shared
// kernel locks — the quantity the paper reports as 31% higher than the
// memory-checkpoint approach.
func (fs *FS) LockWaitTime() time.Duration {
	return fs.allocLock.WaitTime + fs.mapLock.WaitTime
}

// File is an open ramdisk file with a position cursor.
type File struct {
	fs     *FS
	ino    *inode
	pos    int64
	closed bool
	// ownLock serializes writes on this descriptor (the inode mutex).
	ownLock *sim.Mutex
}

func (fs *FS) syscall(p *sim.Proc) {
	p.Sleep(fs.SyscallCost)
}

// Open opens (creating if necessary) a file. Truncation is the caller's
// choice via Truncate.
func (fs *FS) Open(p *sim.Proc, name string) *File {
	fs.syscall(p)
	ino, ok := fs.files[name]
	if !ok {
		ino = &inode{name: name}
		fs.files[name] = ino
	}
	return &File{fs: fs, ino: ino, ownLock: sim.NewMutex(fs.env)}
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Remove deletes a file, releasing its DRAM backing.
func (fs *FS) Remove(p *sim.Proc, name string) error {
	fs.syscall(p)
	ino, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoFile, name)
	}
	fs.dram.Release(ino.size)
	delete(fs.files, name)
	return nil
}

// Write appends-or-overwrites n bytes at the cursor, charging the full VFS
// path: syscall, inode lock, page allocation and page-cache insertion under
// shared kernel locks, the payload copy, and the serialization surcharge.
func (f *File) Write(p *sim.Proc, n int64) error {
	if f.closed {
		return ErrClosed
	}
	if n <= 0 {
		return nil
	}
	fs := f.fs
	fs.syscall(p)
	fs.BytesWritten += n

	// Inode lock: writes to one descriptor are serialized. Sync call 1.
	fs.KernelSyncCalls++
	f.ownLock.Lock(p)
	defer f.ownLock.Unlock(p)

	newEnd := f.pos + n
	growth := newEnd - f.ino.size
	pages := (n + mem.PageSize - 1) / mem.PageSize

	if growth > 0 {
		if err := fs.dram.Reserve(growth); err != nil {
			return err
		}
		f.ino.size = newEnd
	}

	// Per-page kernel work (allocation, radix-tree insertion): mostly
	// parallel, so charged outside the shared locks.
	p.Sleep(time.Duration(pages) * (fs.AllocPerPage + fs.InsertPerPage))

	// Residual work under the shared allocation lock. Sync call 2.
	fs.KernelSyncCalls++
	fs.allocLock.Lock(p)
	p.Sleep(time.Duration(pages) * fs.LockedPerPage)
	fs.allocLock.Unlock(p)

	// Residual work under the shared mapping lock. Sync call 3.
	fs.KernelSyncCalls++
	fs.mapLock.Lock(p)
	p.Sleep(time.Duration(pages) * fs.LockedPerPage)
	fs.mapLock.Unlock(p)

	// copy_from_user plus the serialization surcharge, through shared
	// DRAM bandwidth.
	total := n + int64(float64(n)*fs.serFraction(f.ino.size))
	fs.dram.WriteBytes(p, total)

	f.pos = newEnd
	return nil
}

// Read fetches n bytes at the cursor: syscall plus a copy_to_user through
// DRAM read bandwidth.
func (f *File) Read(p *sim.Proc, n int64) error {
	if f.closed {
		return ErrClosed
	}
	if n <= 0 {
		return nil
	}
	if f.pos+n > f.ino.size {
		return fmt.Errorf("%w: at %d+%d of %d", ErrShortRead, f.pos, n, f.ino.size)
	}
	fs := f.fs
	fs.syscall(p)
	fs.dram.ReadBytes(p, n)
	f.pos += n
	return nil
}

// Seek moves the cursor to an absolute offset.
func (f *File) Seek(p *sim.Proc, off int64) error {
	if f.closed {
		return ErrClosed
	}
	f.fs.syscall(p)
	f.pos = off
	return nil
}

// Truncate resets the file to zero length, releasing its backing pages.
func (f *File) Truncate(p *sim.Proc) error {
	if f.closed {
		return ErrClosed
	}
	f.fs.syscall(p)
	f.fs.dram.Release(f.ino.size)
	f.ino.size = 0
	f.pos = 0
	return nil
}

// Close closes the descriptor.
func (f *File) Close(p *sim.Proc) {
	if f.closed {
		return
	}
	f.fs.syscall(p)
	f.closed = true
}

// Size returns the file's current size.
func (f *File) Size() int64 { return f.ino.size }
