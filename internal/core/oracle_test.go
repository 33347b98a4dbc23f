package core

import (
	"fmt"

	"nvmcp/internal/sim"
)

// Accessors only the tests read: they observe checkpoint state that the
// library itself keeps private.

// DirtyLocal returns persistent chunks modified since their last staging
// (pre-copy or checkpoint), in allocation order.
func (s *Store) DirtyLocal() []*Chunk {
	var out []*Chunk
	for _, c := range s.order {
		if c.Persistent && c.needsStage() {
			out = append(out, c)
		}
	}
	return out
}

// HasCommitted reports whether a committed local checkpoint exists for the
// named variable, without allocating a chunk.
func (s *Store) HasCommitted(p *sim.Proc, name string) bool {
	k := s.kproc.Kernel()
	k.MetaLock.Lock(p)
	_, ok := s.kproc.Chunks().Commit(p, GenID(name))
	k.MetaLock.Unlock(p)
	return ok
}

// Committed reports whether any checkpoint version has been committed.
func (c *Chunk) Committed() bool { return c.committed >= 0 }

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
