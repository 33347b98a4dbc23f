package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// TestRandomOperationSequences drives a store through seeded random
// operation sequences — writes, pre-copies, checkpoints, process restarts —
// and checks the library's core guarantees at every restart:
//
//  1. a chunk restores if and only if it has a committed version;
//  2. restored content equals the most recently committed staged payload;
//  3. committed versions never move backwards;
//  4. a clean chunk is never re-copied by a checkpoint.
func TestRandomOperationSequences(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomOps(t, seed)
		})
	}
}

func runRandomOps(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEnv()
	k := nvmkernel.New(e, mem.NewDRAM(e, 32*mem.GB), mem.NewPCM(e, 32*mem.GB))

	type oracle struct {
		committed map[string][]byte // last committed payload per chunk name
		versions  map[string]uint64
	}
	o := oracle{committed: make(map[string][]byte), versions: make(map[string]uint64)}

	names := []string{"a", "b", "c", "d"}
	sizes := map[string]int64{"a": 3 * mem.MB, "b": 700 * mem.KB, "c": 12 * mem.MB, "d": 40 * mem.KB}
	lazy := seed%2 == 0 // alternate lazy/eager restores across seeds

	const lives = 5
	for life := 0; life < lives; life++ {
		e.Go(fmt.Sprintf("life%d", life), func(p *sim.Proc) {
			s := NewStore(k.Attach("rank0"), Options{LazyRestore: lazy})
			chunks := make(map[string]*Chunk, len(names))
			for _, n := range names {
				c, err := s.NVAlloc(p, n, sizes[n], true)
				if err != nil {
					t.Errorf("life %d alloc %s: %v", life, n, err)
					return
				}
				chunks[n] = c

				// Invariant 1: restores happen iff a commit exists.
				_, hasCommit := o.committed[n]
				if c.Restored != hasCommit {
					t.Errorf("life %d: %s restored=%v but oracle commit=%v", life, n, c.Restored, hasCommit)
				}
				// Invariant 2: restored content matches the oracle.
				if hasCommit {
					if err := c.Read(p, 0, c.Size); err != nil { // materialize if lazy
						t.Errorf("life %d read %s: %v", life, n, err)
						return
					}
					want := o.committed[n]
					got := working(c)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("life %d: %s restored content differs at byte %d", life, n, i)
							break
						}
					}
					// Invariant 3: version monotonic.
					if c.Version < o.versions[n] {
						t.Errorf("life %d: %s version went back: %d < %d", life, n, c.Version, o.versions[n])
					}
				}
			}

			ops := 10 + rng.Intn(20)
			for i := 0; i < ops; i++ {
				name := names[rng.Intn(len(names))]
				c := chunks[name]
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // partial write
					off := rng.Int63n(c.Size)
					n := rng.Int63n(c.Size-off) + 1
					if err := c.Write(p, off, n); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				case 4, 5: // full rewrite
					if err := c.WriteAll(p); err != nil {
						t.Errorf("writeall: %v", err)
						return
					}
				case 6: // background pre-copy
					s.PreCopyChunk(p, c, 0)
				case 7, 8: // coordinated checkpoint
					before := make(map[string]bool, len(chunks))
					for n2, c2 := range chunks {
						before[n2] = c2.Dirty()
					}
					st := s.ChkptAll(p)
					// Invariant 4: only dirty chunks are copied.
					wantCopies := 0
					for _, d := range before {
						if d {
							wantCopies++
						}
					}
					if st.ChunksCopied != wantCopies {
						t.Errorf("ckpt copied %d chunks, oracle says %d dirty", st.ChunksCopied, wantCopies)
					}
					for n2, c2 := range chunks {
						data, ok := s.StagedData(p, c2.ID)
						if c2.Committed() && ok {
							o.committed[n2] = data.AppendTo(nil)
							o.versions[n2] = c2.Version
						}
					}
				case 9: // single-chunk checkpoint
					if _, err := s.ChkptID(p, c.ID); err != nil {
						t.Errorf("chkptid: %v", err)
						return
					}
					if data, ok := s.StagedData(p, c.ID); ok {
						o.committed[name] = data.AppendTo(nil)
						o.versions[name] = c.Version
					}
				}
			}
		})
		e.Run()
		k.SoftReset()
	}
}

func TestPayloadRangeProperty(t *testing.T) {
	e := sim.NewEnv()
	k := nvmkernel.New(e, mem.NewDRAM(e, 8*mem.GB), mem.NewPCM(e, 8*mem.GB))
	var c *Chunk
	e.Go("setup", func(p *sim.Proc) {
		s := NewStore(k.Attach("rank0"), Options{})
		c, _ = s.NVAlloc(p, "x", 16*mem.MB, true)
	})
	e.Run()

	f := func(off32, n32 uint32) bool {
		off := int64(off32) % c.Size
		n := int64(n32)%(c.Size-off) + 1
		lo, ln := c.payloadRange(off, n)
		// The mapped range is always within the payload and non-empty for
		// non-empty writes.
		return lo >= 0 && ln >= 1 && lo+ln <= c.Payload().Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumProperties(t *testing.T) {
	// Same data+size -> same sum; differing size or any byte flip -> (with
	// overwhelming probability) different sum.
	f := func(data []byte, size32 uint32) bool {
		size := int64(size32)
		checksum := func(b []byte, size int64) uint64 { return nvmkernel.Bytes(b).Checksum(size) }
		a := checksum(data, size)
		if checksum(data, size) != a {
			return false
		}
		if checksum(data, size+1) == a {
			return false
		}
		if len(data) > 0 {
			mutated := append([]byte(nil), data...)
			mutated[0] ^= 0xFF
			if checksum(mutated, size) == a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGenIDUniquenessProperty(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return GenID(a) == GenID(b)
		}
		return GenID(a) != GenID(b) // collisions astronomically unlikely
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
