package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// rig builds G member nodes plus a parity node, each member with one rank
// store holding two chunks of checkpointed data.
type rig struct {
	env     *sim.Env
	fabric  *interconnect.Fabric
	nvms    []*mem.Device
	kernels []*nvmkernel.Kernel
	group   *Group
	stores  []*core.Store // per member
}

func newRig(t *testing.T, members int) *rig {
	t.Helper()
	e := sim.NewEnv()
	nodes := members + 1
	fabric := interconnect.New(e, nodes, 0)
	nvms := make([]*mem.Device, nodes)
	kernels := make([]*nvmkernel.Kernel, nodes)
	for i := range nvms {
		nvms[i] = mem.NewPCM(e, 16*mem.GB)
		kernels[i] = nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[i])
	}
	memberIDs := make([]int, members)
	for i := range memberIDs {
		memberIDs[i] = i
	}
	g := NewGroup(e, fabric, nvms, memberIDs, members)
	return &rig{env: e, fabric: fabric, nvms: nvms, kernels: kernels, group: g}
}

// seedStores creates one store per member with two checkpointed chunks.
func (r *rig) seedStores(t *testing.T) {
	t.Helper()
	r.env.Go("seed", func(p *sim.Proc) {
		for i := range r.group.members {
			s := core.NewStore(r.kernels[i].Attach(fmt.Sprintf("rank%d", i)), core.Options{})
			a, err := s.NVAlloc(p, "a", 20*mem.MB, true)
			if err != nil {
				t.Error(err)
				return
			}
			b, err := s.NVAlloc(p, "b", 5*mem.MB, true)
			if err != nil {
				t.Error(err)
				return
			}
			a.WriteAll(p)
			b.WriteAll(p)
			s.ChkptAll(p)
			r.group.Register(i, s)
			r.stores = append(r.stores, s)
		}
	})
	r.env.Run()
}

func TestParityCommitAndFootprint(t *testing.T) {
	r := newRig(t, 3)
	r.seedStores(t)
	r.env.Go("parity", func(p *sim.Proc) {
		if err := r.group.CommitParity(p); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	if r.group.Round() != 1 {
		t.Fatalf("round = %d", r.group.Round())
	}
	// Parity holds D per rank slot (25MB), not G x D.
	if got := r.group.RemoteFootprint(); got != 25*mem.MB {
		t.Fatalf("footprint = %d, want 25MB (buddy replication would hold 75MB+)", got)
	}
	if r.nvms[3].Used != 25*mem.MB {
		t.Fatalf("parity node NVM used = %d", r.nvms[3].Used)
	}
	// Ship volume: every member sent its 25MB once.
	if got := r.group.ShipBytes; got != 75*mem.MB {
		t.Fatalf("ship_bytes = %d, want 75MB", got)
	}
}

func TestReconstructRecoversExactBytes(t *testing.T) {
	r := newRig(t, 3)
	r.seedStores(t)

	// Ground truth: member 1's committed payloads.
	var wantA, wantB []byte
	r.env.Go("snap", func(p *sim.Proc) {
		s := r.stores[1]
		da, _ := s.StagedData(p, core.GenID("a"))
		db, _ := s.StagedData(p, core.GenID("b"))
		wantA = da.AppendTo(nil)
		wantB = db.AppendTo(nil)
		if err := r.group.CommitParity(p); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()

	// Hard-fail member 1 and reconstruct onto a fresh incarnation.
	r.kernels[1].HardFail()
	r.env.Go("recover", func(p *sim.Proc) {
		s := core.NewStore(r.kernels[1].Attach("rank1"), core.Options{})
		a, _ := s.NVAlloc(p, "a", 20*mem.MB, true)
		b, _ := s.NVAlloc(p, "b", 5*mem.MB, true)
		if a.Restored || b.Restored {
			t.Error("chunks restored locally after hard failure?")
			return
		}
		start := p.Now()
		if err := r.group.Reconstruct(p, 1, []*core.Store{s}); err != nil {
			t.Error(err)
			return
		}
		if took := p.Now() - start; took <= 0 {
			t.Error("reconstruction was free")
		}
		if !bytes.Equal(a.Payload().AppendTo(nil), wantA) {
			t.Error("chunk a reconstruction mismatch")
			return
		}
		if !bytes.Equal(b.Payload().AppendTo(nil), wantB) {
			t.Error("chunk b reconstruction mismatch")
			return
		}
	})
	r.env.Run()
	if r.group.Reconstructions != 1 {
		t.Fatal("reconstruction not counted")
	}
}

func TestReconstructCostsGTimesBuddy(t *testing.T) {
	r := newRig(t, 4)
	r.seedStores(t)
	r.env.Go("parity", func(p *sim.Proc) {
		if err := r.group.CommitParity(p); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	before := r.fabric.Bytes(interconnect.ClassCkpt)
	r.kernels[0].HardFail()
	var dur time.Duration
	r.env.Go("recover", func(p *sim.Proc) {
		s := core.NewStore(r.kernels[0].Attach("rank0"), core.Options{})
		s.NVAlloc(p, "a", 20*mem.MB, true)
		s.NVAlloc(p, "b", 5*mem.MB, true)
		start := p.Now()
		if err := r.group.Reconstruct(p, 0, []*core.Store{s}); err != nil {
			t.Error(err)
		}
		dur = p.Now() - start
	})
	r.env.Run()
	moved := r.fabric.Bytes(interconnect.ClassCkpt) - before
	// Parity (25MB) + 3 survivors (75MB) cross the fabric: 4x what a buddy
	// fetch (25MB) would move.
	want := float64(100 * mem.MB)
	if moved < want*0.99 || moved > want*1.01 {
		t.Fatalf("reconstruction moved %v bytes, want ~%v", moved, want)
	}
	if dur <= 0 {
		t.Fatal("no reconstruction time")
	}
}

func TestReconstructWithoutParityFails(t *testing.T) {
	r := newRig(t, 2)
	r.seedStores(t)
	r.env.Go("recover", func(p *sim.Proc) {
		if err := r.group.Reconstruct(p, 0, r.stores[:1]); !errors.Is(err, ErrNoParity) {
			t.Errorf("err = %v, want ErrNoParity", err)
		}
	})
	r.env.Run()
}

func TestStaleSurvivorDetected(t *testing.T) {
	r := newRig(t, 2)
	r.seedStores(t)
	r.env.Go("parity", func(p *sim.Proc) {
		if err := r.group.CommitParity(p); err != nil {
			t.Error(err)
			return
		}
		// Survivor 1 moves on past the parity round.
		s := r.stores[1]
		s.Chunk(core.GenID("a")).WriteAll(p)
		s.Chunk(core.GenID("b")).WriteAll(p)
		s.ChkptAll(p)
	})
	r.env.Run()
	r.kernels[0].HardFail()
	r.env.Go("recover", func(p *sim.Proc) {
		s := core.NewStore(r.kernels[0].Attach("rank0"), core.Options{})
		s.NVAlloc(p, "a", 20*mem.MB, true)
		s.NVAlloc(p, "b", 5*mem.MB, true)
		if err := r.group.Reconstruct(p, 0, []*core.Store{s}); !errors.Is(err, ErrStale) {
			t.Errorf("err = %v, want ErrStale (survivor advanced past the parity round)", err)
		}
	})
	r.env.Run()
}

func TestParityRoundRefreshesWithNewData(t *testing.T) {
	r := newRig(t, 2)
	r.seedStores(t)
	r.env.Go("driver", func(p *sim.Proc) {
		if err := r.group.CommitParity(p); err != nil {
			t.Error(err)
			return
		}
		// Both members advance one round, then re-parity.
		for _, s := range r.stores {
			s.Chunk(core.GenID("a")).WriteAll(p)
			s.ChkptAll(p)
		}
		if err := r.group.CommitParity(p); err != nil {
			t.Error(err)
			return
		}
	})
	r.env.Run()
	if r.group.Round() != 2 {
		t.Fatalf("round = %d", r.group.Round())
	}
	// Footprint unchanged: accumulators replaced, not duplicated.
	if got := r.group.RemoteFootprint(); got != 25*mem.MB {
		t.Fatalf("footprint after re-parity = %d", got)
	}
}

func TestShapeMismatchDetected(t *testing.T) {
	r := newRig(t, 2)
	// Member 0 has the standard two chunks, member 1 an extra one.
	r.env.Go("seed", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			s := core.NewStore(r.kernels[i].Attach(fmt.Sprintf("rank%d", i)), core.Options{})
			a, _ := s.NVAlloc(p, "a", 10*mem.MB, true)
			a.WriteAll(p)
			if i == 1 {
				b, _ := s.NVAlloc(p, "only-on-1", 5*mem.MB, true)
				b.WriteAll(p)
			}
			s.ChkptAll(p)
			r.group.Register(i, s)
		}
		if err := r.group.CommitParity(p); !errors.Is(err, ErrShape) {
			t.Errorf("err = %v, want ErrShape", err)
		}
	})
	r.env.Run()
}

func TestRemoteFootprintBeforeParityIsZero(t *testing.T) {
	r := newRig(t, 2)
	r.seedStores(t)
	if r.group.RemoteFootprint() != 0 {
		t.Fatal("footprint nonzero before any parity round")
	}
	if r.group.Round() != 0 {
		t.Fatal("round nonzero before commit")
	}
}

func TestXorIntoGrowsAndInverts(t *testing.T) {
	var g Group
	a := []byte{0x0F}
	b := nvmkernel.Bytes([]byte{0xF0, 0xAA})
	c := g.xorInto(append([]byte(nil), a...), b)
	if len(c) != 2 || c[0] != 0xFF || c[1] != 0xAA {
		t.Fatalf("xorInto = %v", c)
	}
	// XOR is its own inverse: folding b back yields a (zero-padded).
	back := g.xorInto(append([]byte(nil), c...), b)
	if back[0] != 0x0F || back[1] != 0 {
		t.Fatalf("inverse = %v", back)
	}
}

func TestGroupValidation(t *testing.T) {
	e := sim.NewEnv()
	fabric := interconnect.New(e, 3, 0)
	nvms := []*mem.Device{mem.NewPCM(e, mem.GB), mem.NewPCM(e, mem.GB), mem.NewPCM(e, mem.GB)}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("single-member group did not panic")
			}
		}()
		NewGroup(e, fabric, nvms, []int{0}, 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("parity-as-member did not panic")
			}
		}()
		NewGroup(e, fabric, nvms, []int{0, 1}, 1)
	}()
}

// TestFetchChunkMatchesReconstruct holds the cluster's per-chunk parity
// fetch to the whole-member reconstruction: for every chunk FetchChunk
// returns the bytes Reconstruct adopts, and it costs the same virtual time
// but for the failed node's NVM write, which FetchChunk pays in place of the
// adoption. It also returns each error class Reconstruct does.
func TestFetchChunkMatchesReconstruct(t *testing.T) {
	const failed = 1
	names := []string{"a", "b"}
	ids := []uint64{core.GenID("a"), core.GenID("b")}
	sizes := []int64{20 * mem.MB, 5 * mem.MB}
	committed := func() *rig {
		r := newRig(t, 3)
		r.seedStores(t)
		r.env.Go("parity", func(p *sim.Proc) {
			if err := r.group.CommitParity(p); err != nil {
				t.Error(err)
			}
		})
		r.env.Run()
		r.kernels[failed].HardFail()
		return r
	}
	replacement := func(p *sim.Proc, r *rig) *core.Store {
		s := core.NewStore(r.kernels[failed].Attach("rank1"), core.Options{})
		for i, name := range names {
			if _, err := s.NVAlloc(p, name, sizes[i], true); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	// Reconstruct the whole member.
	whole := committed()
	var wholeTime time.Duration
	want := make([][]byte, len(ids))
	whole.env.Go("reconstruct", func(p *sim.Proc) {
		s := replacement(p, whole)
		start := p.Now()
		if err := whole.group.Reconstruct(p, failed, []*core.Store{s}); err != nil {
			t.Error(err)
			return
		}
		wholeTime = p.Now() - start
		for i, id := range ids {
			want[i] = s.Chunk(id).Payload().AppendTo(nil)
		}
	})
	whole.env.Run()

	// Fetch chunk by chunk, then adopt what was fetched.
	each := committed()
	var fetchTime, adoptTime, writeTime time.Duration
	each.env.Go("fetch", func(p *sim.Proc) {
		s := replacement(p, each)
		for i, id := range ids {
			start := p.Now()
			data, size, err := each.group.FetchChunk(p, failed, 0, id)
			if err != nil {
				t.Error(err)
				return
			}
			fetchTime += p.Now() - start
			if size != sizes[i] {
				t.Errorf("chunk %d: size %d, want %d", i, size, sizes[i])
			}
			if !bytes.Equal(data.AppendTo(nil), want[i]) {
				t.Errorf("chunk %d: FetchChunk bytes differ from what Reconstruct adopts", i)
			}
			start = p.Now()
			if err := s.AdoptRemote(p, s.Chunk(id), data); err != nil {
				t.Error(err)
				return
			}
			adoptTime += p.Now() - start
			start = p.Now()
			each.nvms[failed].WriteBytes(p, size)
			writeTime += p.Now() - start
		}
	})
	each.env.Run()
	if writeTime <= 0 {
		t.Fatal("the failed node's NVM write took no time")
	}
	if got := fetchTime - writeTime + adoptTime; got != wholeTime {
		t.Errorf("fetch %v - write %v + adopt %v = %v, want Reconstruct's %v",
			fetchTime, writeTime, adoptTime, got, wholeTime)
	}

	t.Run("no-parity", func(t *testing.T) {
		r := newRig(t, 2)
		r.seedStores(t)
		r.env.Go("fetch", func(p *sim.Proc) {
			if _, _, err := r.group.FetchChunk(p, 0, 0, ids[0]); !errors.Is(err, ErrNoParity) {
				t.Errorf("err = %v, want ErrNoParity", err)
			}
		})
		r.env.Run()
	})
	t.Run("stale", func(t *testing.T) {
		r := newRig(t, 2)
		r.seedStores(t)
		r.env.Go("fetch", func(p *sim.Proc) {
			if err := r.group.CommitParity(p); err != nil {
				t.Error(err)
				return
			}
			s := r.stores[1]
			s.Chunk(ids[0]).WriteAll(p)
			s.ChkptAll(p)
			if _, _, err := r.group.FetchChunk(p, 0, 0, ids[0]); !errors.Is(err, ErrStale) {
				t.Errorf("err = %v, want ErrStale (survivor re-staged past the parity round)", err)
			}
		})
		r.env.Run()
	})
	t.Run("missing-slot", func(t *testing.T) {
		r := newRig(t, 3)
		r.seedStores(t)
		r.env.Go("fetch", func(p *sim.Proc) {
			if err := r.group.CommitParity(p); err != nil {
				t.Error(err)
				return
			}
			r.group.SetStores(2, nil) // survivor 2 lost its rank slot 0
			if _, _, err := r.group.FetchChunk(p, 0, 0, ids[0]); !errors.Is(err, ErrShape) {
				t.Errorf("err = %v, want ErrShape", err)
			}
		})
		r.env.Run()
	})
}
