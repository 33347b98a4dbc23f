package remote_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/pfs"
	"nvmcp/internal/remote"
	"nvmcp/internal/sim"
)

// payloadKinds are the two forms a staged payload takes: the recipe a
// whole-chunk write leaves, and the materialized bytes of a partial write.
var payloadKinds = []struct {
	name  string
	write func(p *sim.Proc, c *core.Chunk) error
}{
	{"recipe", func(p *sim.Proc, c *core.Chunk) error { return c.WriteAll(p) }},
	{"bytes", func(p *sim.Proc, c *core.Chunk) error { return c.Write(p, c.Size/4, c.Size/3) }},
}

// tiers is node 0's chunk "field" checkpointed to all three tiers: locally
// committed, shipped to and committed at buddy node 1, and drained from
// there to the PFS. Every tier holds the one payload core staged.
type tiers struct {
	env  *sim.Env
	k0   *nvmkernel.Kernel
	mesh *remote.Mesh
	fs   *pfs.FS
	want []byte // the staged payload's bytes
}

const fieldObject = "rank0/field"

// checkpointAllTiers checkpoints "field" after one write, then writes it
// again; write is one of payloadKinds.
func checkpointAllTiers(t *testing.T, write func(*sim.Proc, *core.Chunk) error) *tiers {
	t.Helper()
	e := sim.NewEnv()
	nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
	tr := &tiers{
		env: e,
		k0:  nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0]),
		fs:  pfs.New(e),
	}
	tr.mesh = remote.NewMesh(e, interconnect.New(e, 2, 0), nvms)
	agent := tr.mesh.AddAgent(0, 1, remote.Config{Scheme: remote.AsyncBurst})
	store := core.NewStore(tr.k0.Attach("rank0"), core.Options{})
	agent.Register(store)
	e.Go("app", func(p *sim.Proc) {
		c, _ := store.NVAlloc(p, "field", 4*mem.MB, true)
		if err := write(p, c); err != nil {
			t.Error(err)
			return
		}
		store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		if st := tr.fs.Drain(p, tr.mesh, 1); st.Objects != 1 {
			t.Errorf("drain moved %d objects, want 1", st.Objects)
		}
		staged, ok := store.StagedData(p, c.ID)
		if !ok || staged.Len() == 0 {
			t.Error("no staged payload after the checkpoint")
			return
		}
		tr.want = staged.AppendTo(nil)

		// The application keeps computing: DRAM changes.
		if err := write(p, c); err != nil {
			t.Error(err)
		}
		if bytes.Equal(c.Payload().AppendTo(nil), tr.want) {
			t.Error("second write left the DRAM payload unchanged")
		}
		if got, _ := store.StagedData(p, c.ID); !bytes.Equal(got.AppendTo(nil), tr.want) {
			t.Error("a DRAM write reached the staged payload")
		}
		agent.Stop()
	})
	e.Run()
	if tr.want == nil {
		t.FailNow()
	}
	return tr
}

// assertShared checks that the buddy replica and the PFS object still hold
// the first checkpoint's bytes.
func (tr *tiers) assertShared(t *testing.T, p *sim.Proc) {
	t.Helper()
	data, _, _, ok := tr.mesh.Fetch(p, 0, "rank0", core.GenID("field"))
	if equal := bytes.Equal(data.AppendTo(nil), tr.want); !ok || !equal {
		t.Errorf("buddy replica changed: ok=%v equal=%v", ok, equal)
	}
	obj, _, _, err := tr.fs.Read(p, fieldObject)
	if equal := bytes.Equal(obj.AppendTo(nil), tr.want); err != nil || !equal {
		t.Errorf("PFS object changed: err=%v equal=%v", err, equal)
	}
}

func TestSharedPayloadStaysIsolated(t *testing.T) {
	for _, kind := range payloadKinds {
		t.Run(kind.name, func(t *testing.T) {
			tr := checkpointAllTiers(t, kind.write)
			tr.env.Go("check", func(p *sim.Proc) { tr.assertShared(t, p) })
			tr.env.Run()
		})
	}
}

func TestCorruptionDoesNotLeakIntoSharedCopies(t *testing.T) {
	for _, kind := range payloadKinds {
		t.Run(kind.name, func(t *testing.T) { corruptionStaysLocal(t, kind.write) })
	}
}

func corruptionStaysLocal(t *testing.T, write func(*sim.Proc, *core.Chunk) error) {
	for _, torn := range []bool{false, true} {
		tr := checkpointAllTiers(t, write)
		tr.k0.SoftReset()
		victims := core.CorruptCommitted(tr.k0, rand.New(rand.NewSource(1)), 1, torn)
		if len(victims) != 1 || victims[0].Key() != fieldObject {
			t.Fatalf("torn=%v: victims = %+v, want %s", torn, victims, fieldObject)
		}
		tr.env.Go("strict", func(p *sim.Proc) {
			s := core.NewStore(tr.k0.Attach("rank0"), core.Options{})
			if _, err := s.NVAlloc(p, "field", 4*mem.MB, true); !errors.Is(err, core.ErrChecksum) {
				t.Errorf("torn=%v: local restore err = %v, want ErrChecksum", torn, err)
			}
			tr.assertShared(t, p)
		})
		tr.env.Run()
		tr.k0.SoftReset()
		tr.env.Go("adopt", func(p *sim.Proc) {
			s := core.NewStore(tr.k0.Attach("rank0"), core.Options{SalvageCorrupt: true})
			c, err := s.NVAlloc(p, "field", 4*mem.MB, true)
			if err != nil || c.Restored {
				t.Errorf("torn=%v: salvage NVAlloc = restored %v, err %v", torn, c != nil && c.Restored, err)
				return
			}
			data, _, _, ok := tr.mesh.Fetch(p, 0, "rank0", c.ID)
			if !ok {
				t.Errorf("torn=%v: no replica to adopt", torn)
				return
			}
			if err := s.AdoptRemote(p, c, data); err != nil {
				t.Errorf("torn=%v: AdoptRemote: %v", torn, err)
			}
			if !bytes.Equal(c.Payload().AppendTo(nil), tr.want) {
				t.Errorf("torn=%v: adopted contents differ from the checkpoint", torn)
			}
		})
		tr.env.Run()
	}
}
