package remote

import (
	"fmt"
	"testing"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// rig is a two-node cluster: rank0 on node 0 checkpoints remotely to node 1.
type rig struct {
	env    *sim.Env
	fabric *interconnect.Fabric
	mesh   *Mesh
	k0     *nvmkernel.Kernel
	store  *core.Store
}

func newRig(e *sim.Env, cfg Config) (*rig, *Agent) {
	fabric := interconnect.New(e, 2, 0)
	nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
	k0 := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0])
	mesh := NewMesh(e, fabric, nvms)
	agent := mesh.AddAgent(0, 1, cfg)
	store := core.NewStore(k0.Attach("rank0"), core.Options{})
	agent.Register(store)
	return &rig{env: e, fabric: fabric, mesh: mesh, k0: k0, store: store}, agent
}

func TestBurstShipsEverythingAtTrigger(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 100*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p) // local checkpoint stages the data
		if agent.Counters.Get("ships") != 0 {
			t.Error("burst agent shipped before trigger")
		}
		done := agent.TriggerRemote(p)
		done.Await(p)
		if agent.Counters.Get("ships") != 1 {
			t.Errorf("ships = %d, want 1", agent.Counters.Get("ships"))
		}
		if agent.Counters.Get("commits") != 1 {
			t.Errorf("remote commits = %d, want 1", agent.Counters.Get("commits"))
		}
		agent.Stop()
	})
	e.Run()
	if got := r.fabric.Bytes(interconnect.ClassCkpt); got != float64(100*mem.MB) {
		t.Fatalf("fabric ckpt bytes = %v, want 100MB", got)
	}
}

func TestPreCopyShipsIncrementally(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: PreCopy, ScanTick: 50 * time.Millisecond})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 100*mem.MB, true)
		agent.BeginRemoteInterval()
		c.WriteAll(p)
		r.store.PreCopyChunk(p, c, 0) // local staging
		p.Sleep(time.Second)          // compute; helper ships in background
		if agent.Counters.Get("ships") != 1 {
			t.Errorf("pre-copy ships = %d, want 1 before trigger", agent.Counters.Get("ships"))
		}
		done := agent.TriggerRemote(p)
		done.Await(p)
		// Nothing new to ship at the trigger: data already resident.
		if agent.Counters.Get("ships") != 1 {
			t.Errorf("ships = %d after trigger, want still 1", agent.Counters.Get("ships"))
		}
		agent.Stop()
	})
	e.Run()
}

func TestPreCopyRespectsDelay(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{
		Scheme:   PreCopy,
		Delay:    2 * time.Second,
		ScanTick: 50 * time.Millisecond,
	})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 50*mem.MB, true)
		agent.BeginRemoteInterval()
		c.WriteAll(p)
		r.store.PreCopyChunk(p, c, 0)
		p.Sleep(time.Second)
		if agent.Counters.Get("ships") != 0 {
			t.Errorf("shipped before the remote delay elapsed")
		}
		p.Sleep(1500 * time.Millisecond)
		if agent.Counters.Get("ships") != 1 {
			t.Errorf("ships = %d after delay, want 1", agent.Counters.Get("ships"))
		}
		agent.Stop()
	})
	e.Run()
}

func TestUnstagedChunkIsNotShipped(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: PreCopy, ScanTick: 20 * time.Millisecond})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 50*mem.MB, true)
		agent.BeginRemoteInterval()
		c.WriteAll(p) // dirty in DRAM, never staged to NVM
		p.Sleep(time.Second)
		if agent.Counters.Get("ships") != 0 {
			t.Error("helper shipped data that was never durably staged")
		}
		agent.Stop()
	})
	e.Run()
}

func TestFetchRecoversCommittedRemoteCopy(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	var want []byte
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 30*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p)
		want, _ = r.store.StagedData(p, c.ID)
		want = append([]byte(nil), want...)
		agent.TriggerRemote(p).Await(p)

		// Hard failure of node 0: local NVM gone; fetch from buddy.
		r.k0.HardFail()
		data, size, _, ok := r.mesh.Fetch(p, 0, "rank0", c.ID)
		if !ok {
			t.Error("remote fetch failed")
			return
		}
		if size != 30*mem.MB {
			t.Errorf("fetched size = %d", size)
		}
		for i := range want {
			if data[i] != want[i] {
				t.Error("fetched data differs from committed checkpoint")
				return
			}
		}
		agent.Stop()
	})
	e.Run()
	if r.mesh.Counters.Get("fetches") != 1 {
		t.Fatal("fetch not counted")
	}
}

func TestFetchWithoutRemoteCommitFails(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 10*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p)
		// No TriggerRemote: buddy has nothing committed.
		if _, _, _, ok := r.mesh.Fetch(p, 0, "rank0", c.ID); ok {
			t.Error("fetch returned data that was never remotely committed")
		}
		agent.Stop()
	})
	e.Run()
}

func TestRemoteTwoVersionsSurviveNewShipment(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 10*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		v1, _, _, _ := r.mesh.Fetch(p, 0, "rank0", c.ID)
		v1 = append([]byte(nil), v1...)

		// Second round: new data shipped but NOT remotely committed —
		// fetch must still return version 1.
		c.WriteAll(p)
		r.store.ChkptAll(p)
		p.Sleep(5 * time.Second) // helper idle: burst mode, no trigger
		got, _, _, ok := r.mesh.Fetch(p, 0, "rank0", c.ID)
		if !ok {
			t.Error("fetch failed")
			return
		}
		for i := range v1 {
			if got[i] != v1[i] {
				t.Error("uncommitted shipment overwrote the committed remote version")
				return
			}
		}
		agent.Stop()
	})
	e.Run()
}

func TestRepeatedTriggerShipsOnlyNewData(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		a, _ := r.store.NVAlloc(p, "a", 10*mem.MB, true)
		b, _ := r.store.NVAlloc(p, "init-only", 10*mem.MB, true)
		a.WriteAll(p)
		b.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		if agent.Counters.Get("ships") != 2 {
			t.Errorf("first round ships = %d, want 2", agent.Counters.Get("ships"))
		}
		// Only a changes; b is GTC-style init-only.
		a.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		if agent.Counters.Get("ships") != 3 {
			t.Errorf("total ships = %d, want 3 (b unchanged)", agent.Counters.Get("ships"))
		}
		agent.Stop()
	})
	e.Run()
}

func TestAgentShipsMultipleRanksInRegistrationOrder(t *testing.T) {
	e := sim.NewEnv()
	fabric := interconnect.New(e, 2, 0)
	nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
	k0 := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0])
	mesh := NewMesh(e, fabric, nvms)
	agent := mesh.AddAgent(0, 1, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		var stores []*core.Store
		for i := 0; i < 3; i++ {
			s := core.NewStore(k0.Attach(fmt.Sprintf("rank%d", i)), core.Options{})
			agent.Register(s)
			c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
			c.WriteAll(p)
			s.ChkptAll(p)
			stores = append(stores, s)
		}
		agent.TriggerRemote(p).Await(p)
		if got := agent.Counters.Get("ships"); got != 3 {
			t.Errorf("ships = %d, want one per rank", got)
		}
		// Each rank's copy is individually fetchable.
		k0.HardFail()
		for i := range stores {
			if _, _, _, ok := mesh.Fetch(p, 0, fmt.Sprintf("rank%d", i), core.GenID("field")); !ok {
				t.Errorf("rank%d copy missing at buddy", i)
			}
		}
		agent.Stop()
	})
	e.Run()
}

func TestTwoSourcesSharingOneBuddyStayIsolated(t *testing.T) {
	// Nodes 0 and 2 both ship to node 1; a commit by one agent must not
	// flip the other's in-flight versions.
	e := sim.NewEnv()
	fabric := interconnect.New(e, 3, 0)
	nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
	k0 := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0])
	k2 := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[2])
	mesh := NewMesh(e, fabric, nvms)
	a0 := mesh.AddAgent(0, 1, Config{Scheme: AsyncBurst})
	a2 := mesh.AddAgent(2, 1, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		s0 := core.NewStore(k0.Attach("n0rank"), core.Options{})
		s2 := core.NewStore(k2.Attach("n2rank"), core.Options{})
		a0.Register(s0)
		a2.Register(s2)
		for _, s := range []*core.Store{s0, s2} {
			c, _ := s.NVAlloc(p, "field", 10*mem.MB, true)
			c.WriteAll(p)
			s.ChkptAll(p)
		}
		// Only node 0 triggers; node 2's data was never shipped, let alone
		// committed.
		a0.TriggerRemote(p).Await(p)
		if _, _, _, ok := mesh.Fetch(p, 0, "n0rank", core.GenID("field")); !ok {
			t.Error("node 0's copy missing")
		}
		if _, _, _, ok := mesh.Fetch(p, 2, "n2rank", core.GenID("field")); ok {
			t.Error("node 2's data fetchable without its own remote commit")
		}
		a0.Stop()
		a2.Stop()
	})
	e.Run()
}

func TestHelperMeterTracksBusyTime(t *testing.T) {
	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		c, _ := r.store.NVAlloc(p, "field", 400*mem.MB, true)
		c.WriteAll(p)
		r.store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		p.Sleep(10 * time.Second)
		agent.Stop()
	})
	e.Run()
	util := agent.Meter.Utilization(e.Now())
	if util <= 0 || util > 0.5 {
		t.Fatalf("helper utilization = %v, want small positive fraction", util)
	}
}

func TestPreCopyReducesPeakInterconnectVsBurst(t *testing.T) {
	// The Figure 10 effect in miniature: the same data volume, shipped
	// either spread out (capped pre-copy) or all at once.
	run := func(cfg Config) float64 {
		e := sim.NewEnv()
		r, agent := newRig(e, cfg)
		e.Go("app", func(p *sim.Proc) {
			c, _ := r.store.NVAlloc(p, "field", 200*mem.MB, true)
			for iter := 0; iter < 3; iter++ {
				agent.BeginRemoteInterval()
				c.WriteAll(p)
				r.store.ChkptAll(p)
				p.Sleep(10 * time.Second)
				agent.TriggerRemote(p).Await(p)
			}
			agent.Stop()
		})
		e.Run()
		peak, _ := r.fabric.PeakCkptWindow(e.Now(), 2*time.Second)
		return peak
	}
	burstPeak := run(Config{Scheme: AsyncBurst})
	precopyPeak := run(Config{
		Scheme:   PreCopy,
		RateCap:  40 * 1e6,
		ScanTick: 100 * time.Millisecond,
	})
	if precopyPeak >= burstPeak {
		t.Fatalf("pre-copy peak (%v) not below burst peak (%v)", precopyPeak, burstPeak)
	}
	if precopyPeak > 0.6*burstPeak {
		t.Fatalf("pre-copy peak %v vs burst %v: want roughly half or less", precopyPeak, burstPeak)
	}
}

// TestCountersReadByShortName ships, commits and fetches one chunk with and
// without a recorder: by-name reads return the short-name counts either way,
// and with a recorder each count lands once in the registry, under its
// component's prefix.
func TestCountersReadByShortName(t *testing.T) {
	for _, recorded := range []bool{false, true} {
		t.Run(fmt.Sprintf("recorder=%v", recorded), func(t *testing.T) {
			e := sim.NewEnv()
			fabric := interconnect.New(e, 2, 0)
			nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
			k0 := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0])
			mesh := NewMesh(e, fabric, nvms)
			cfg := Config{Scheme: AsyncBurst}
			var o *obs.Observer
			if recorded {
				o = obs.New(e)
				fabric.SetRecorder(o.Recorder(0, "fabric"))
				mesh.SetRecorder(o.Recorder(0, "mesh"))
				cfg.Rec = o.Recorder(0, "helper")
			}
			agent := mesh.AddAgent(0, 1, cfg)
			store := core.NewStore(k0.Attach("rank0"), core.Options{})
			agent.Register(store)
			e.Go("app", func(p *sim.Proc) {
				c, _ := store.NVAlloc(p, "field", 10*mem.MB, true)
				c.WriteAll(p)
				store.ChkptAll(p)
				agent.TriggerRemote(p).Await(p)
				if _, _, _, ok := mesh.Fetch(p, 0, "rank0", c.ID); !ok {
					t.Error("remote fetch failed")
				}
				agent.Stop()
			})
			e.Run()

			for _, tc := range []struct {
				what string
				got  int64
				want int64
			}{
				{"agent ships", agent.Counters.Get("ships"), 1},
				{"agent ship_bytes", agent.Counters.Get("ship_bytes"), 10 * mem.MB},
				{"agent commits", agent.Counters.Get("commits"), 1},
				{"mesh fetches", mesh.Counters.Get("fetches"), 1},
				{"mesh commits", mesh.Counters.Get("commits"), 1},
				{"fabric bytes_ckpt", fabric.Counters.Get("bytes_ckpt"), 20 * mem.MB},
				{"fabric transfers", fabric.Counters.Get("transfers"), 2},
			} {
				if tc.got != tc.want {
					t.Errorf("%s = %d, want %d", tc.what, tc.got, tc.want)
				}
			}
			if !recorded {
				return
			}
			flat := o.Registry().Flatten()
			for name, want := range map[string]float64{
				"helper_ships":      1,
				"helper_ship_bytes": float64(10 * mem.MB),
				"helper_commits":    1,
				"remote_fetches":    1,
				"remote_commits":    1,
				"fabric_bytes_ckpt": float64(20 * mem.MB),
			} {
				if got := flat[name]; got != want {
					t.Errorf("registry rollup %s = %v, want %v", name, got, want)
				}
			}
			for _, name := range []string{"ships", "remote_ships", "ship_bytes", "fabric_transfers", "transfers"} {
				if _, ok := flat[name]; ok {
					t.Errorf("registry holds %s; it must be booked once or stay in-process", name)
				}
			}
		})
	}
}
