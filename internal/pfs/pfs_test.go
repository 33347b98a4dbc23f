package pfs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/remote"
	"nvmcp/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	fs := New(e, 0, 0)
	e.Go("w", func(p *sim.Proc) {
		fs.Write(p, "ckpt/rank0", 100*mem.MB, 7, nvmkernel.Bytes([]byte{1, 2, 3}))
		got, size, version, err := fs.Read(p, "ckpt/rank0")
		data := got.AppendTo(nil)
		if err != nil {
			t.Error(err)
			return
		}
		if size != 100*mem.MB || version != 7 || len(data) != 3 || data[2] != 3 {
			t.Errorf("read = size %d v%d data %v", size, version, data)
		}
		if _, _, _, err := fs.Read(p, "missing"); !errors.Is(err, ErrNoObject) {
			t.Errorf("missing read err = %v", err)
		}
	})
	e.Run()
	if len(fs.objects) != 1 || fs.objects["ckpt/rank0"].size != 100*mem.MB {
		t.Fatalf("objects = %+v", fs.objects)
	}
}

func TestStripeCapLimitsOneClient(t *testing.T) {
	e := sim.NewEnv()
	fs := New(e, 2e9, 500e6)
	var took time.Duration
	e.Go("w", func(p *sim.Proc) {
		start := p.Now()
		fs.Write(p, "x", int64(500e6), 1, nvmkernel.Payload{}) // 500 MB at the 500 MB/s stripe cap
		took = p.Now() - start
	})
	e.Run()
	if diff := (took - time.Second).Abs(); diff > 10*time.Millisecond {
		t.Fatalf("capped write took %v, want ~1s despite 2GB/s aggregate", took)
	}
}

func TestAggregateBandwidthShared(t *testing.T) {
	e := sim.NewEnv()
	fs := New(e, 2e9, 1e9)
	const writers = 8
	for i := 0; i < writers; i++ {
		name := string(rune('a' + i))
		e.Go("w", func(p *sim.Proc) {
			fs.Write(p, name, int64(250e6), 1, nvmkernel.Payload{})
		})
	}
	e.Run()
	// 8 x 250MB = 2GB through a 2GB/s aggregate: ~1s total, regardless of
	// the generous per-client cap.
	if diff := (e.Now() - time.Second).Abs(); diff > 20*time.Millisecond {
		t.Fatalf("8 writers finished at %v, want ~1s (aggregate-bound)", e.Now())
	}
}

func TestOverwriteKeepsSingleObject(t *testing.T) {
	e := sim.NewEnv()
	fs := New(e, 0, 0)
	e.Go("w", func(p *sim.Proc) {
		fs.Write(p, "x", mem.MB, 1, nvmkernel.Bytes([]byte{1}))
		fs.Write(p, "x", mem.MB, 2, nvmkernel.Bytes([]byte{2}))
	})
	e.Run()
	if len(fs.objects) != 1 {
		t.Fatalf("objects = %d", len(fs.objects))
	}
	if _, v, ok := fs.Stat("x"); !ok || v != 2 {
		t.Fatalf("stat = v%d ok=%v", v, ok)
	}
}

// drainRig builds a 2-node buddy setup with one committed remote copy.
func drainRig(t *testing.T) (*sim.Env, *remote.Mesh, *FS, *core.Store) {
	t.Helper()
	e := sim.NewEnv()
	fabric := interconnect.New(e, 2, 0)
	nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
	k := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0])
	mesh := remote.NewMesh(e, fabric, nvms)
	agent := mesh.AddAgent(0, 1, remote.Config{Scheme: remote.AsyncBurst})
	fs := New(e, 0, 0)
	var store *core.Store
	e.Go("app", func(p *sim.Proc) {
		store = core.NewStore(k.Attach("rank0"), core.Options{})
		agent.Register(store)
		c, _ := store.NVAlloc(p, "field", 50*mem.MB, true)
		c.WriteAll(p)
		store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		agent.Stop()
	})
	e.Run()
	return e, mesh, fs, store
}

func TestDrainFlushesCommittedRemoteCopies(t *testing.T) {
	e, mesh, fs, store := drainRig(t)
	var st DrainStats
	e.Go("drain", func(p *sim.Proc) {
		st = fs.Drain(p, mesh, 1)
	})
	e.Run()
	if st.Objects != 1 || st.Bytes != 50*mem.MB {
		t.Fatalf("drain stats = %+v", st)
	}
	if st.Duration <= 0 {
		t.Fatal("drain was free")
	}
	// Content matches the committed checkpoint.
	e.Go("verify", func(p *sim.Proc) {
		want, _ := store.StagedData(p, core.GenID("field"))
		data, _, _, err := fs.Read(p, "rank0/field")
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(data.AppendTo(nil), want.AppendTo(nil)) {
			t.Error("PFS content differs from committed checkpoint")
		}
	})
	e.Run()
}

func TestDrainIsIncremental(t *testing.T) {
	e, mesh, fs, _ := drainRig(t)
	e.Go("drain", func(p *sim.Proc) {
		first := fs.Drain(p, mesh, 1)
		if first.Objects != 1 {
			t.Errorf("first drain: %+v", first)
		}
		// Nothing new: the second drain moves nothing.
		second := fs.Drain(p, mesh, 1)
		if second.Objects != 0 || second.Bytes != 0 {
			t.Errorf("second drain moved data: %+v", second)
		}
	})
	e.Run()
}

// uitoa formats a uint64 without strconv gymnastics at call sites.
func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
