package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// pinNames mixes 19- and 20-digit chunk ids: GenID("electrons") is
// 2904884771239257024 and GenID("ions") is 18235336323708299834, so sorting
// the ids as numbers and as decimal strings gives different orders.
var pinNames = []string{"electrons", "ions", "zion", "phi", "rho"}

// TestCorruptVictimOrderPinned holds CorruptCommitted's victim choice under
// fixed seeds. Candidates are enumerated in sorted decimal-id order, and the
// seeded shuffle runs over that order, so enumerating in numeric order would
// damage different chunks.
func TestCorruptVictimOrderPinned(t *testing.T) {
	want := map[int64]string{
		1: "rank0/ions rank0/phi rank0/zion",
		2: "rank1/ions rank1/phi rank1/rho",
		3: "rank0/electrons rank0/phi rank0/zion",
		4: "rank0/phi rank1/phi rank1/zion",
		5: "rank0/ions rank0/zion rank1/ions",
	}
	for seed := int64(1); seed <= 5; seed++ {
		r := newRig()
		for _, proc := range []string{"rank0", "rank1"} {
			names := pinNames
			if proc == "rank1" {
				names = pinNames[1:]
			}
			r.env.Go(proc, func(p *sim.Proc) {
				s := NewStore(r.k.Attach(proc), Options{})
				for _, n := range names {
					c, err := s.NVAlloc(p, n, mem.MB, true)
					if err != nil {
						t.Error(err)
						return
					}
					c.WriteAll(p)
				}
				s.ChkptAll(p)
			})
		}
		r.env.Run()
		victims := CorruptCommitted(r.k, rand.New(rand.NewSource(seed)), 3, seed%2 == 0)
		keys := make([]string, len(victims))
		for i, v := range victims {
			keys[i] = v.Key()
		}
		if got := strings.Join(keys, " "); got != want[seed] {
			t.Errorf("seed %d: victims %q, want %q", seed, got, want[seed])
		}
	}
}

// pinStep is one scripted call with the node's syscall count and the
// caller's virtual time right after it.
type pinStep struct {
	step string
	sys  int64
	now  time.Duration
}

// scriptLifetimes drives one store mode through a checkpointing lifetime and
// three restarts (eager, lazy, and salvage over a corrupted chunk), marking
// the kernel's syscall count and virtual time after every step.
func scriptLifetimes(t *testing.T, single bool) []pinStep {
	t.Helper()
	r := newRig()
	var got []pinStep
	mark := func(p *sim.Proc, step string) {
		got = append(got, pinStep{step, r.k.Syscalls, p.Now()})
	}
	names := []string{"electrons", "ions", "phi"}
	r.env.Go("life1", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{SingleVersion: single})
		var cs []*Chunk
		for _, n := range names {
			c, err := s.NVAlloc(p, n, 4*mem.MB, true)
			if err != nil {
				t.Error(err)
				return
			}
			cs = append(cs, c)
			mark(p, "NVAlloc "+n)
		}
		for _, c := range cs {
			c.WriteAll(p)
		}
		mark(p, "WriteAll")
		s.PreCopyChunk(p, cs[0])
		mark(p, "PreCopyChunk")
		s.ChkptAll(p)
		mark(p, "ChkptAll")
		cs[1].WriteAll(p)
		if _, err := s.ChkptID(p, cs[1].ID); err != nil {
			t.Error(err)
		}
		mark(p, "ChkptID")
		if _, ok := s.StagedData(p, cs[1].ID); !ok {
			t.Error("StagedData found nothing after ChkptID")
		}
		mark(p, "StagedData")
		if !s.HasCommitted(p, "ions") {
			t.Error("HasCommitted(ions) = false after ChkptID")
		}
		mark(p, "HasCommitted")
		// Under SingleVersion the re-stage first clears the commit record.
		cs[0].WriteAll(p)
		s.PreCopyChunk(p, cs[0])
		mark(p, "re-stage")
		if err := s.NVDelete(p, cs[2]); err != nil {
			t.Error(err)
		}
		mark(p, "NVDelete")
	})
	r.env.Run()
	restart := func(label string, opts Options) {
		r.k.SoftReset()
		opts.SingleVersion = single
		r.env.Go(label, func(p *sim.Proc) {
			s := NewStore(r.k.Attach("rank0"), opts)
			for _, n := range names {
				c, err := s.NVAlloc(p, n, 4*mem.MB, true)
				if err != nil {
					t.Errorf("%s restore of %s: %v", label, n, err)
					return
				}
				if err := c.Read(p, 0, c.Size); err != nil {
					t.Errorf("%s read of %s: %v", label, n, err)
				}
				mark(p, label+" "+n)
			}
		})
		r.env.Run()
	}
	restart("eager", Options{})
	restart("lazy", Options{LazyRestore: true})
	if v := CorruptCommitted(r.k, rand.New(rand.NewSource(3)), 1, false); len(v) != 1 {
		t.Errorf("corrupted %d chunks, want 1", len(v))
	}
	got = append(got, pinStep{"CorruptCommitted", r.k.Syscalls, r.env.Now()})
	restart("salvage", Options{SalvageCorrupt: true})
	return got
}

// TestSyscallsAndVirtualTimePinned holds every persistent-metadata access to
// one charged syscall at the point it always had: the kernel's syscall count
// and the virtual time after each step of a scripted set of lifetimes must
// not move.
func TestSyscallsAndVirtualTimePinned(t *testing.T) {
	want := map[bool][]pinStep{
		false: {
			{"NVAlloc electrons", 3, 900},
			{"NVAlloc ions", 6, 1800},
			{"NVAlloc phi", 9, 2700},
			{"WriteAll", 9, 2700},
			{"PreCopyChunk", 10, 2203552},
			{"ChkptAll", 15, 6606156},
			{"ChkptID", 17, 8817308},
			{"StagedData", 18, 8817608},
			{"HasCommitted", 19, 8817908},
			{"re-stage", 20, 11028760},
			{"NVDelete", 25, 11030260},
			{"eager electrons", 33, 11556748},
			{"eager ions", 37, 12083236},
			{"eager phi", 40, 12084136},
			{"lazy electrons", 50, 12610624},
			{"lazy ions", 54, 13137112},
			{"lazy phi", 57, 13138012},
			{"CorruptCommitted", 63, 13138012},
			{"salvage electrons", 73, 13664500},
			{"salvage ions", 78, 14190288},
			{"salvage phi", 81, 14191188},
		},
		true: {
			{"NVAlloc electrons", 2, 600},
			{"NVAlloc ions", 4, 1200},
			{"NVAlloc phi", 6, 1800},
			{"WriteAll", 6, 1800},
			{"PreCopyChunk", 7, 2202652},
			{"ChkptAll", 12, 6605256},
			{"ChkptID", 15, 8816708},
			{"StagedData", 16, 8817008},
			{"HasCommitted", 17, 8817308},
			{"re-stage", 19, 11028460},
			{"NVDelete", 22, 11029360},
			{"eager electrons", 26, 11029960},
			{"eager ions", 29, 11556148},
			{"eager phi", 31, 11556748},
			{"lazy electrons", 36, 11557348},
			{"lazy ions", 39, 12083536},
			{"lazy phi", 41, 12084136},
			{"CorruptCommitted", 46, 12084136},
			{"salvage electrons", 51, 12084736},
			{"salvage ions", 55, 12610224},
			{"salvage phi", 57, 12610824},
		},
	}
	for _, single := range []bool{false, true} {
		got := scriptLifetimes(t, single)
		if fmt.Sprint(got) != fmt.Sprint(want[single]) {
			var b strings.Builder
			for _, s := range got {
				fmt.Fprintf(&b, "\t\t\t{%q, %d, %d},\n", s.step, s.sys, int64(s.now))
			}
			t.Errorf("SingleVersion=%v: steps moved; got\n%s", single, b.String())
		}
	}
}
