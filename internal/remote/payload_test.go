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

// tiers is node 0's chunk "field" checkpointed to all three tiers: locally
// committed, shipped to and committed at buddy node 1, and drained from
// there to the PFS. Every tier holds the one slice core staged.
type tiers struct {
	env  *sim.Env
	k0   *nvmkernel.Kernel
	mesh *remote.Mesh
	fs   *pfs.FS
	want []byte // a private copy of the staged payload
}

const fieldObject = "rank0/field"

func checkpointAllTiers(t *testing.T) *tiers {
	t.Helper()
	e := sim.NewEnv()
	nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
	tr := &tiers{
		env: e,
		k0:  nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0]),
		fs:  pfs.New(e, 0, 0),
	}
	tr.mesh = remote.NewMesh(e, interconnect.New(e, 2, 0), nvms)
	agent := tr.mesh.AddAgent(0, 1, remote.Config{Scheme: remote.AsyncBurst})
	store := core.NewStore(tr.k0.Attach("rank0"), core.Options{})
	agent.Register(store)
	e.Go("app", func(p *sim.Proc) {
		c, _ := store.NVAlloc(p, "field", 4*mem.MB, true)
		c.WriteAll(p)
		store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		if st := tr.fs.Drain(p, tr.mesh, 1); st.Objects != 1 {
			t.Errorf("drain moved %d objects, want 1", st.Objects)
		}
		staged, ok := store.StagedData(p, c.ID)
		if !ok || len(staged) == 0 {
			t.Error("no staged payload after the checkpoint")
			return
		}
		tr.want = append([]byte(nil), staged...)

		// The application keeps computing: DRAM changes.
		c.WriteAll(p)
		if bytes.Equal(c.Data(), tr.want) {
			t.Error("second write left the DRAM payload unchanged")
		}
		if got, _ := store.StagedData(p, c.ID); !bytes.Equal(got, tr.want) {
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
	if !ok || !bytes.Equal(data, tr.want) {
		t.Errorf("buddy replica changed: ok=%v equal=%v", ok, bytes.Equal(data, tr.want))
	}
	obj, _, _, err := tr.fs.Read(p, fieldObject)
	if err != nil || !bytes.Equal(obj, tr.want) {
		t.Errorf("PFS object changed: err=%v equal=%v", err, bytes.Equal(obj, tr.want))
	}
}

func TestSharedPayloadStaysIsolated(t *testing.T) {
	tr := checkpointAllTiers(t)
	tr.env.Go("check", func(p *sim.Proc) { tr.assertShared(t, p) })
	tr.env.Run()
}

func TestCorruptionDoesNotLeakIntoSharedCopies(t *testing.T) {
	for _, torn := range []bool{false, true} {
		tr := checkpointAllTiers(t)
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
			if err := s.AdoptRemote(p, c, data, 0); err != nil {
				t.Errorf("torn=%v: AdoptRemote: %v", torn, err)
			}
			if !bytes.Equal(c.Data(), tr.want) {
				t.Errorf("torn=%v: adopted contents differ from the checkpoint", torn)
			}
		})
		tr.env.Run()
	}
}
