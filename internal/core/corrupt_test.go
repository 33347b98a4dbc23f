package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// ckptOneChunk runs a first process lifetime that allocates, writes, and
// locally commits one 10MB chunk named "field".
func ckptOneChunk(r *rig) {
	r.env.Go("life1", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
		c.WriteAll(p)
		s.ChkptAll(p)
	})
	r.env.Run()
	r.k.SoftReset()
}

func TestCorruptCommittedNamesVictimsDeterministically(t *testing.T) {
	r := newRig()
	ckptOneChunk(r)
	victims := CorruptCommitted(r.k, rand.New(rand.NewSource(1)), 1, false)
	if len(victims) != 1 {
		t.Fatalf("corrupted %d chunks, want 1", len(victims))
	}
	if victims[0].Proc != "rank0" || !strings.HasPrefix(victims[0].Key(), "rank0/") {
		t.Fatalf("victim = %+v, want proc rank0", victims[0])
	}
	if victims[0].Seq == 0 {
		t.Fatalf("victim %+v carries no staged generation", victims[0])
	}
	// Asking for more victims than exist corrupts only what is there.
	if extra := CorruptCommitted(r.k, rand.New(rand.NewSource(2)), 99, true); len(extra) != 1 {
		t.Fatalf("second pass corrupted %d chunks, want 1", len(extra))
	}
}

func TestCorruptionSurfacesAsChecksumErrorOnEagerRestore(t *testing.T) {
	r := newRig()
	ckptOneChunk(r)
	CorruptCommitted(r.k, rand.New(rand.NewSource(1)), 1, false)
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		if _, err := s.NVAlloc(p, "field", 10*mem.MB, true); !errors.Is(err, ErrChecksum) {
			t.Errorf("strict restore err = %v, want ErrChecksum", err)
		}
	})
	r.env.Run()
}

// A kernel sharing a run's checksum memo memoizes the committed recipe's
// sum when the chunk is staged. Corruption installs materialized bytes, which
// restore hashes in full, so the damage still surfaces on both restore paths;
// an intact copy restores through the memo.
func TestCorruptionSurfacesThroughTheSumMemo(t *testing.T) {
	for _, tc := range []struct {
		name          string
		corrupt, lazy bool
	}{{"intact", false, false}, {"eager", true, false}, {"lazy", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig()
			r.k.ShareSums(nvmkernel.NewSumMemo())
			ckptOneChunk(r)
			if tc.corrupt {
				CorruptCommitted(r.k, rand.New(rand.NewSource(1)), 1, tc.lazy)
			}
			r.env.Go("life2", func(p *sim.Proc) {
				s := NewStore(r.k.Attach("rank0"), Options{LazyRestore: tc.lazy})
				c, err := s.NVAlloc(p, "field", 10*mem.MB, true)
				if tc.lazy && err == nil {
					err = c.Read(p, 0, 4096)
				}
				switch {
				case tc.corrupt && !errors.Is(err, ErrChecksum):
					t.Errorf("restore err = %v, want ErrChecksum", err)
				case !tc.corrupt && (err != nil || !c.Restored):
					t.Errorf("intact restore err = %v, restored %v", err, c != nil && c.Restored)
				}
			})
			r.env.Run()
		})
	}
}

// Satellite: the lazy-restore path must also catch corruption — deferred to
// the materializing read, not skipped.
func TestCorruptionSurfacesAsChecksumErrorOnLazyRead(t *testing.T) {
	r := newRig()
	ckptOneChunk(r)
	CorruptCommitted(r.k, rand.New(rand.NewSource(1)), 1, true)
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{LazyRestore: true})
		c, err := s.NVAlloc(p, "field", 10*mem.MB, true)
		if err != nil {
			t.Errorf("lazy NVAlloc err = %v, want deferred verification", err)
			return
		}
		if !c.RestorePending() {
			t.Error("lazy restore not armed over corrupted data")
		}
		if err := c.Read(p, 0, 4096); !errors.Is(err, ErrChecksum) {
			t.Errorf("materializing read err = %v, want ErrChecksum", err)
		}
	})
	r.env.Run()
}

func TestSalvageCorruptLeavesChunkUnrestoredForCascade(t *testing.T) {
	r := newRig()
	ckptOneChunk(r)
	CorruptCommitted(r.k, rand.New(rand.NewSource(1)), 1, false)
	r.env.Go("life2", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{SalvageCorrupt: true})
		c, err := s.NVAlloc(p, "field", 10*mem.MB, true)
		if err != nil {
			t.Errorf("salvage NVAlloc err = %v, want nil", err)
			return
		}
		if c.Restored {
			t.Error("corrupted chunk reported as restored under salvage")
		}
		if got := s.Counters.Get("restore_checksum_errors"); got != 1 {
			t.Errorf("restore_checksum_errors = %d, want 1", got)
		}
		// The damaged version's commit record is gone: a fresh lifetime sees
		// a clean allocation, not a second checksum failure.
		c.WriteAll(p)
		s.ChkptAll(p)
	})
	r.env.Run()
	r.k.SoftReset()
	r.env.Go("life3", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		c, err := s.NVAlloc(p, "field", 10*mem.MB, true)
		if err != nil {
			t.Errorf("post-salvage restore err = %v", err)
			return
		}
		if !c.Restored {
			t.Error("re-checkpointed chunk did not restore after salvage")
		}
	})
	r.env.Run()
}
