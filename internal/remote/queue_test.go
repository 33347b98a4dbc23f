package remote

import (
	"fmt"
	"math/rand"
	"testing"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// referencePick is the helper's original full rescan, kept as the oracle for
// the ship queue: every registered store's Snapshot in registration order,
// and the first chunk in allocation order whose staged data the buddy lacks.
func (a *Agent) referencePick(p *sim.Proc) (core.ChunkState, *core.Store) {
	if !a.bursting {
		if a.cfg.Scheme != PreCopy || a.mesh.env.Now() < a.intervalStart+a.cfg.Delay {
			return core.ChunkState{}, nil
		}
	}
	for _, q := range a.queues {
		s := q.store
		for _, st := range s.Snapshot(p) {
			key := chunkKey{s.Proc().Name(), st.ID}
			if st.CleanSeq == 0 {
				continue // never staged locally; nothing durable to ship
			}
			if a.bursting {
				target := a.burstTarget[key]
				if target == 0 || a.shipped[key] >= target {
					continue
				}
			} else if a.shipped[key] >= st.CleanSeq {
				continue
			}
			return st, s
		}
	}
	return core.ChunkState{}, nil
}

// oracle drives one source node's helper by hand (its own loop is stopped)
// through a random sequence of checkpoint-path and fault events, checking
// before every step that the ship queue picks what the full rescan picks.
// It runs in a simulated process, so failures are reported with Error and
// the driver stops stepping once the test has failed.
type oracle struct {
	t     *testing.T
	rng   *rand.Rand
	mesh  *Mesh
	k0    *nvmkernel.Kernel
	cfg   Config
	agent *Agent
	// peer is a second source node sharing the initial buddy, so remote
	// commits must leave another source's in-flight copies alone.
	peer      *Agent
	peerStore *core.Store
	stores    []*core.Store
	steps     int
}

// oracleNames is the pool of chunk variable names each rank allocates from.
var oracleNames = func() []string {
	out := make([]string, 24)
	for i := range out {
		out[i] = fmt.Sprintf("v%02d", i)
	}
	return out
}()

// oracleRanks are the two ranks on the source node.
var oracleRanks = []string{"rank0", "rank1"}

func newOracle(t *testing.T, e *sim.Env, seed int64) *oracle {
	fabric := interconnect.New(e, 3, 0)
	nvms := []*mem.Device{mem.NewPCM(e, 64*mem.GB), mem.NewPCM(e, 64*mem.GB), mem.NewPCM(e, 64*mem.GB)}
	o := &oracle{
		t:    t,
		rng:  rand.New(rand.NewSource(seed)),
		mesh: NewMesh(e, fabric, nvms),
		k0:   nvmkernel.New(e, mem.NewDRAM(e, 64*mem.GB), nvms[0]),
		cfg:  Config{Scheme: PreCopy},
	}
	if seed%3 == 0 {
		o.cfg.Scheme = AsyncBurst
	}
	k2 := nvmkernel.New(e, mem.NewDRAM(e, 64*mem.GB), nvms[2])
	o.peer = o.mesh.AddAgent(2, 1, Config{Scheme: AsyncBurst})
	o.peer.Stop()
	o.peerStore = core.NewStore(k2.Attach("peer"), core.Options{PayloadCap: 64, SalvageCorrupt: true})
	o.peer.Register(o.peerStore)
	return o
}

// start (re)launches the source node: a fresh helper and fresh stores that
// re-allocate a random subset of the names, restoring what was committed.
// Half the time the stores register before allocating, so restores reach
// the queue through the stage hook rather than the registration seed.
func (o *oracle) start(p *sim.Proc) {
	o.mesh.RemoveAgent(0)
	buddy := 1
	if o.mesh.down[1] {
		buddy = 2
	}
	o.agent = o.mesh.AddAgent(0, buddy, o.cfg)
	o.agent.Stop()
	o.stores = o.stores[:0]
	registerFirst := o.rng.Intn(2) == 0
	for _, name := range oracleRanks {
		s := core.NewStore(o.k0.Attach(name), core.Options{PayloadCap: 64, SalvageCorrupt: true})
		if registerFirst {
			o.agent.Register(s)
		}
		o.stores = append(o.stores, s)
	}
	for _, s := range o.stores {
		for _, name := range oracleNames {
			if o.rng.Intn(3) > 0 {
				o.alloc(p, s, name)
			}
		}
		if !registerFirst {
			o.agent.Register(s)
		}
	}
}

func (o *oracle) alloc(p *sim.Proc, s *core.Store, name string) {
	if s.Chunk(core.GenID(name)) != nil {
		return
	}
	persist := name[len(name)-1] != '7' // a few non-persistent chunks
	if _, err := s.NVAlloc(p, name, int64(1+o.rng.Intn(4))*mem.MB, persist); err != nil {
		o.t.Errorf("alloc %s: %v", name, err)
	}
}

// randomChunk returns a random live chunk of a random store, or nil.
func (o *oracle) randomChunk() (*core.Store, *core.Chunk) {
	s := o.stores[o.rng.Intn(len(o.stores))]
	if s.NumChunks() == 0 {
		return s, nil
	}
	return s, s.ChunkAt(o.rng.Intn(s.NumChunks()))
}

// check compares the queue's pick with the rescan's and returns it.
func (o *oracle) check(p *sim.Proc) (core.ChunkState, *core.Store) {
	o.t.Helper()
	wantSt, want := o.agent.referencePick(p)
	gotSt, got := o.agent.nextToShip(p)
	if got != want || gotSt != wantSt {
		o.t.Errorf("step %d (bursting=%v): queue picked %+v of %v, rescan picked %+v of %v",
			o.steps, o.agent.bursting, gotSt, storeName(got), wantSt, storeName(want))
	}
	return gotSt, got
}

func storeName(s *core.Store) string {
	if s == nil {
		return "none"
	}
	return s.Proc().Name()
}

// finishBurst does what the helper loop does once a burst drains, checking
// the remote commit against the original rule: every in-flight copy at the
// buddy that belongs to one of the agent's processes flips, nothing else.
func (o *oracle) finishBurst(p *sim.Proc, a *Agent) {
	o.t.Helper()
	held := o.mesh.data[a.buddy]
	flip := map[chunkKey]int8{}
	stay := map[chunkKey]bool{}
	for key, rc := range held {
		if rc.inflight && a.procs[key.proc] {
			flip[key] = rc.committed
		} else if rc.inflight {
			stay[key] = true
		}
	}
	a.commitRemote(p)
	a.bursting = false
	a.burstDone.Complete()
	for key, rc := range held {
		before, flipped := flip[key]
		switch {
		case flipped && (rc.inflight || rc.committed == before):
			o.t.Errorf("step %d: %v in flight at commit but not flipped", o.steps, key)
		case stay[key] && !rc.inflight:
			o.t.Errorf("step %d: another source's copy %v flipped", o.steps, key)
		}
	}
}

// step applies one random event.
func (o *oracle) step(p *sim.Proc) {
	o.steps++
	st, s := o.check(p)
	a := o.agent
	switch r := o.rng.Intn(100); {
	case r < 25: // ship the pick, as the helper loop would
		if s != nil {
			a.shipWithRetry(p, st, s)
		} else if a.bursting {
			o.finishBurst(p, a)
		}
	case r < 45: // dirty (or re-dirty a staged) chunk
		if _, c := o.randomChunk(); c != nil {
			if err := c.WriteAll(p); err != nil {
				o.t.Error(err)
			}
		}
	case r < 60: // pre-copy stage
		if s, c := o.randomChunk(); c != nil {
			s.PreCopyChunk(p, c, 0)
		}
	case r < 65: // coordinated checkpoint: stage every dirty chunk, commit
		o.stores[o.rng.Intn(len(o.stores))].ChkptAll(p)
	case r < 71:
		if !a.bursting {
			a.TriggerRemote(p)
		}
	case r < 76: // the peer source ships to and commits at the shared holder
		c, _ := o.peerStore.NVAlloc(p, fmt.Sprintf("p%d", o.steps), mem.MB, true)
		if c != nil {
			c.WriteAll(p)
			o.peerStore.ChkptAll(p)
			o.peer.TriggerRemote(p)
			for {
				pst, ps := o.peer.nextToShip(p)
				if ps == nil {
					break
				}
				o.peer.shipWithRetry(p, pst, ps)
			}
			if o.rng.Intn(2) == 0 {
				o.finishBurst(p, o.peer)
			} else {
				o.peer.bursting = false // left in flight at the holder
			}
		}
	case r < 79: // buddy down: the next blocked ship fails over
		for n := 1; n < 3; n++ {
			o.mesh.SetNodeDown(n, n == a.buddy)
		}
	case r < 85:
		s := o.stores[o.rng.Intn(len(o.stores))]
		o.alloc(p, s, oracleNames[o.rng.Intn(len(oracleNames))])
	case r < 91:
		if s, c := o.randomChunk(); c != nil {
			if err := s.NVDelete(p, c); err != nil {
				o.t.Error(err)
			}
		}
	case r < 94:
		if s, c := o.randomChunk(); c != nil && c.Persistent {
			if err := s.NVRealloc(p, c, c.Size+mem.MB); err != nil {
				o.t.Error(err)
			}
		}
	case r < 97: // local NVM wiped at the holder: its copies are gone
		if o.rng.Intn(2) == 0 {
			o.mesh.DropNode(a.buddy)
		}
	default: // node restart: new helper, re-registered stores
		o.k0.SoftReset()
		o.start(p)
	}
}

// TestShipQueueMatchesRescan holds the ship queue to the full rescan it
// replaced over randomized sequences of staging, re-dirtying, shipping,
// remote triggers, buddy failover, deletes, reallocs and restarts.
func TestShipQueueMatchesRescan(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		e := sim.NewEnv()
		o := newOracle(t, e, seed)
		e.Go("driver", func(p *sim.Proc) {
			o.start(p)
			for i := 0; i < 300 && !t.Failed(); i++ {
				o.step(p)
			}
			o.agent.Stop()
		})
		e.Run()
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// BenchmarkNextToShip measures one pick plus its shipped-ledger update with
// every chunk of a store staged: a full pass ships them all, then the ledger
// is cleared and the queue re-seeded as a failover would. The cost per pick
// must not grow with the chunk count.
func BenchmarkNextToShip(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("chunks=%d", n), func(b *testing.B) {
			e := sim.NewEnv()
			fabric := interconnect.New(e, 2, 0)
			nvms := []*mem.Device{mem.NewPCM(e, 64*mem.GB), mem.NewPCM(e, 64*mem.GB)}
			k0 := nvmkernel.New(e, mem.NewDRAM(e, 64*mem.GB), nvms[0])
			agent := NewMesh(e, fabric, nvms).AddAgent(0, 1, Config{Scheme: PreCopy})
			agent.Stop()
			s := core.NewStore(k0.Attach("rank0"), core.Options{PayloadCap: 64, SalvageCorrupt: true})
			agent.Register(s)
			e.Go("bench", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					c, err := s.NVAlloc(p, fmt.Sprintf("chunk%d", i), 64<<10, true)
					if err != nil {
						b.Error(err)
						return
					}
					c.WriteAll(p)
				}
				s.ChkptAll(p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, got := agent.nextToShip(p)
					if got == nil {
						clear(agent.shipped)
						agent.queues[0].seed()
						continue
					}
					agent.shipped[chunkKey{"rank0", st.ID}] = st.CleanSeq
				}
				b.StopTimer()
			})
			e.Run()
		})
	}
}
