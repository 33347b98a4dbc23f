package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// payloadWrites are the two forms a chunk's payload takes: the recipe a
// whole-chunk write leaves, and the materialized bytes of a partial write.
var payloadWrites = []struct {
	name  string
	write func(p *sim.Proc, c *Chunk) error
}{
	{"recipe", func(p *sim.Proc, c *Chunk) error { return c.WriteAll(p) }},
	{"bytes", func(p *sim.Proc, c *Chunk) error { return c.Write(p, c.Size/4, c.Size/3) }},
}

// A corrupted slot restored lazily fails its first read, whichever form
// the committed payload had and whichever damage it took.
func TestLazyRestoreOfCorruptedSlotFailsFirstRead(t *testing.T) {
	for _, w := range payloadWrites {
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/torn=%v", w.name, torn), func(t *testing.T) {
				r := newRig()
				r.env.Go("life1", func(p *sim.Proc) {
					s := NewStore(r.k.Attach("rank0"), Options{})
					c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
					if err := w.write(p, c); err != nil {
						t.Error(err)
					}
					s.ChkptAll(p)
				})
				r.env.Run()
				r.k.SoftReset()
				if v := CorruptCommitted(r.k, rand.New(rand.NewSource(3)), 1, torn); len(v) != 1 {
					t.Fatalf("corrupted %d chunks, want 1", len(v))
				}
				r.env.Go("life2", func(p *sim.Proc) {
					s := NewStore(r.k.Attach("rank0"), Options{LazyRestore: true})
					c, err := s.NVAlloc(p, "field", 10*mem.MB, true)
					if err != nil || !c.RestorePending() {
						t.Errorf("lazy NVAlloc: err %v, pending %v", err, c != nil && c.RestorePending())
						return
					}
					if err := c.Read(p, 0, 1); !errors.Is(err, ErrChecksum) {
						t.Errorf("first read err = %v, want ErrChecksum", err)
					}
				})
				r.env.Run()
			})
		}
	}
}

// A write after a stage builds a new working payload: the staged slot keeps
// its bytes and its checksum (copy-on-write, never in place).
func TestWriteAfterStageLeavesStagedSlot(t *testing.T) {
	for _, staged := range payloadWrites {
		for _, next := range payloadWrites {
			t.Run(staged.name+"/then-"+next.name, func(t *testing.T) {
				newRig().run(t, func(p *sim.Proc, s *Store) {
					c, _ := s.NVAlloc(p, "field", mem.MB, true)
					if err := staged.write(p, c); err != nil {
						t.Fatal(err)
					}
					s.ChkptAll(p)
					slot, _ := s.StagedData(p, c.ID)
					want, sum := slot.AppendTo(nil), s.Snapshot(p)[0].Checksum
					if err := next.write(p, c); err != nil {
						t.Fatal(err)
					}
					if bytes.Equal(working(c), want) {
						t.Fatal("the write left the working payload unchanged")
					}
					got, _ := s.StagedData(p, c.ID)
					if !bytes.Equal(got.AppendTo(nil), want) {
						t.Error("the write reached the staged slot's bytes")
					}
					if got.Checksum(c.Size) != sum {
						t.Error("the staged slot's checksum moved")
					}
				})
			})
		}
	}
}

// stageAllocBytes returns the bytes allocated per WriteAll + ChkptAll round
// over 64 chunks whose payloads are capped at payloadCap.
func stageAllocBytes(t *testing.T, payloadCap int) uint64 {
	const chunks, rounds = 64, 8
	var per uint64
	r := newRig()
	r.env.Go("app", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{PayloadCap: payloadCap})
		cs := make([]*Chunk, chunks)
		for i := range cs {
			cs[i], _ = s.NVAlloc(p, fmt.Sprintf("chunk%d", i), 64<<10, true)
		}
		round := func() {
			for _, c := range cs {
				if err := c.WriteAll(p); err != nil {
					t.Error(err)
				}
			}
			s.ChkptAll(p)
		}
		round() // first stage of each chunk creates its table record
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		per = (after.TotalAlloc - before.TotalAlloc) / rounds
	})
	r.env.Run()
	return per
}

// Staging keeps the working payload, never a copy of it, so a checkpoint
// allocates no more with 64 KiB payloads than with 2 KiB ones. A copy per
// staged chunk would add 64 x 62 KiB per checkpoint.
func TestStageAllocationIndependentOfPayloadCap(t *testing.T) {
	small := stageAllocBytes(t, 2<<10)
	big := stageAllocBytes(t, 64<<10)
	t.Logf("bytes allocated per checkpoint: %d at a 2 KiB cap, %d at 64 KiB", small, big)
	if big > small+64<<10 {
		t.Fatalf("a checkpoint allocates %d bytes at a 64 KiB payload cap, %d at 2 KiB: staging copies grow with the cap", big, small)
	}
}
