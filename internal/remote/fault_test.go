package remote

import (
	"testing"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// A hard loss mid-ship must never leave a half-shipped chunk looking
// remotely committed: the buddy-side state flips only after the full RDMA
// write lands and the burst commit runs.
func TestHardLossMidShipLeavesNothingRemotelyCommitted(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 200*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p) // no Await: the failure interrupts the burst
		p.Sleep(10 * time.Millisecond)
		// The RDMA write for the 200MB chunk is in flight; the source node
		// hard-fails now.
		r.mesh.RemoveAgent(0)
		if got := r.mesh.CommittedList(1); len(got) != 0 {
			t.Fatalf("buddy lists %d committed copies after a mid-ship loss, want 0", len(got))
		}
		// Even with the node back, the half shipment must not be fetchable.
		agent2 := r.mesh.AddAgent(0, 1, Config{Scheme: AsyncBurst})
		agent2.Register(r.store)
		if _, _, _, ok := r.mesh.Fetch(p, 0, "rank0", c.ID); ok {
			t.Error("half-shipped chunk fetchable as a committed remote copy")
		}
		agent2.Stop()
	})
	e.Run()
}

// A loss mid-ship of version 2 must leave the committed version 1 intact
// and fetchable — the two-version remote layout is exactly for this.
func TestHardLossMidShipPreservesPriorCommittedVersion(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 200*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p) // v1 remotely committed
		v1, _, _, ok := r.mesh.Fetch(p, 0, "rank0", c.ID)
		if !ok {
			t.Fatal("v1 fetch failed")
		}
		v1 = append([]byte(nil), v1...)

		c.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p) // v2 ship starts...
		p.Sleep(10 * time.Millisecond)
		r.mesh.RemoveAgent(0) // ...and dies mid-wire

		agent2 := r.mesh.AddAgent(0, 1, Config{Scheme: AsyncBurst})
		agent2.Register(r.store)
		got, _, _, ok := r.mesh.Fetch(p, 0, "rank0", c.ID)
		if !ok {
			t.Fatal("committed v1 unfetchable after mid-ship loss of v2")
		}
		for i := range v1 {
			if got[i] != v1[i] {
				t.Fatal("half-shipped v2 corrupted the committed v1 copy")
			}
		}
		agent2.Stop()
	})
	e.Run()
}

// With the buddy down, the helper backs off MaxShipRetries times and then
// fails over to the nearest live node; the burst completes against the new
// buddy and the data is fetchable from it.
func TestBuddyFailoverAfterRetriesExhausted(t *testing.T) {
	e := sim.NewEnv()
	fabric := interconnect.New(e, 3, 0)
	nvms := []*mem.Device{
		mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB),
	}
	k0 := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0])
	mesh := NewMesh(e, fabric, nvms)
	agent := mesh.AddAgent(0, 1, Config{
		Scheme:         AsyncBurst,
		MaxShipRetries: 2,
		RetryBackoff:   10 * time.Millisecond,
	})
	store := core.NewStore(k0.Attach("rank0"), core.Options{})
	agent.Register(store)
	e.Go("app", func(p *sim.Proc) {
		c, _ := store.NVAlloc(p, "field", 20*mem.MB, true)
		c.WriteAll(p)
		store.ChkptAll(p)
		mesh.SetNodeDown(1, true)
		agent.TriggerRemote(p).Await(p)
		if got := agent.Buddy(); got != 2 {
			t.Errorf("buddy after failover = %d, want 2", got)
		}
		if got := agent.Counters.Get("ship_retries"); got < 2 {
			t.Errorf("ship_retries = %d, want >= 2 before failover", got)
		}
		if got := agent.Counters.Get("buddy_failovers"); got != 1 {
			t.Errorf("buddy_failovers = %d, want 1", got)
		}
		if _, _, _, ok := mesh.Fetch(p, 0, "rank0", c.ID); !ok {
			t.Error("chunk not fetchable from the failover buddy")
		}
		agent.Stop()
	})
	e.Run()
}

// A transient outage shorter than the backoff budget self-heals with no
// failover: the retries ride it out and the original buddy keeps the data.
func TestTransientBuddyOutageSelfHealsWithoutFailover(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{
		Scheme:         AsyncBurst,
		MaxShipRetries: 6,
		RetryBackoff:   50 * time.Millisecond,
	})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 20*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p)
		r.mesh.SetNodeDown(1, true)
		done := agent.TriggerRemote(p)
		p.Sleep(120 * time.Millisecond) // within the backoff budget
		r.mesh.SetNodeDown(1, false)
		done.Await(p)
		if got := agent.Buddy(); got != 1 {
			t.Errorf("buddy = %d after transient outage, want 1 (no failover)", got)
		}
		if agent.Counters.Get("ship_retries") == 0 {
			t.Error("no retries recorded during the outage")
		}
		if agent.Counters.Get("buddy_failovers") != 0 {
			t.Error("failover triggered by a transient outage")
		}
		if _, _, _, ok := r.mesh.Fetch(p, 0, "rank0", c.ID); !ok {
			t.Error("chunk not fetchable after the outage healed")
		}
		agent.Stop()
	})
	e.Run()
}

// A drain reads each listed copy back by its key when it gets to it: the
// committed slot as it is then, nothing once the holder's NVM is gone.
func TestCommittedDataReadsListedCopyAtReadTime(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 4*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		listed := r.mesh.CommittedList(1)
		if len(listed) != 1 || listed[0].Name != "rank0/field" {
			t.Fatalf("listing = %+v, want rank0/field", listed)
		}
		v1, ok := r.mesh.CommittedData(p, 1, listed[0])
		if !ok {
			t.Fatal("listed copy unreadable")
		}

		// A newer remote commit after the listing: the read returns it.
		c.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		v2, ok := r.mesh.CommittedData(p, 1, listed[0])
		want, _, _, _ := r.mesh.Fetch(p, 0, "rank0", c.ID)
		if !ok || &v2[0] != &want[0] || &v2[0] == &v1[0] {
			t.Fatal("read did not return the copy committed at read time")
		}

		// The holder's NVM is lost: the stale listing entry reads as missing.
		r.mesh.DropNode(1)
		if _, ok := r.mesh.CommittedData(p, 1, listed[0]); ok {
			t.Fatal("copy dropped with its holder still readable")
		}
		agent.Stop()
	})
	e.Run()
}
