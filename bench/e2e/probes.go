package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/remote"
	"nvmcp/internal/resource"
	"nvmcp/internal/sim"
)

// meter accumulates host time and heap allocations over timed sections.
type meter struct {
	d       time.Duration
	mallocs int64
	t0      time.Time
	m0      int64
}

func heapMallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

func (m *meter) start() {
	m.m0 = heapMallocs()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.d += time.Since(m.t0)
	m.mallocs += heapMallocs() - m.m0
}

// probe is a timed call into one layer's public functions. run performs
// about n operations and returns how many it made and what they cost.
type probe struct {
	// name is the ns/op metric; allocsName(name) is the allocs/op metric.
	name string
	n    int
	run  func(ps *probeSet, n int) (int, meter, error)
}

// allocsName turns "remote.ship_ns.c64" into "remote.ship_allocs.c64".
func allocsName(nsName string) string {
	return strings.Replace(nsName, "_ns", "_allocs", 1)
}

var probes = []probe{
	{"sim.schedule_ns", 2_000_000, probeSchedule},
	{"sim.procswitch_ns", 1_000_000, probeProcSwitch},
	{"resource.transfer_ns", 240_000, probeResource},
	{"interconnect.transfer_ns", 160_000, probeFabric},
	{"nvmkernel.meta_ns", 200_000, probeMeta},
	{"nvmkernel.touchwrite_ns", 200_000, probeTouchWrite},
	{"core.stage_ns", 16_000, probeStage},
	{"core.snapshot_ns", 20_000, probeSnapshot},
	{"remote.ship_ns.c64", 16_000, probeShip(64)},
	{"remote.ship_ns.c256", 16_000, probeShip(256)},
	{"obs.emit_ns", 300_000, probeEmit},
	{"obs.counter_add_ns", 1_000_000, probeCounterAdd},
	{"lineage.fold_ns", 600_000, probeFold("lineage")},
	{"slo.fold_ns", 600_000, probeFold("slo")},
	{"drift.fold_ns", 600_000, probeFold("drift")},
}

// probeSet holds what the probes share: the recorded bus stream of one
// faults-observed run, replayed by the fold probes.
type probeSet struct {
	stream []obs.Event
	// cfg is the faults-observed configuration with no bus consumers.
	cfg cluster.Config
	// consumers holds each consumer's configuration by layer name.
	consumers map[string]func(*cluster.Config)
}

func newProbeSet() (*probeSet, error) {
	w, _ := workloadByName("faults-observed")
	scs, err := w.scenarios(defaultSeed)
	if err != nil {
		return nil, err
	}
	c, err := w.newCluster(scs[0])
	if err != nil {
		return nil, err
	}
	if _, err := c.Execute(); err != nil {
		return nil, fmt.Errorf("fold probes: faults-observed: %w", err)
	}
	cfg := c.Cfg
	lin, sl, dr := cfg.Lineage, cfg.SLO, cfg.Drift
	cfg.Lineage, cfg.SLO, cfg.Drift = nil, nil, nil
	return &probeSet{
		stream: c.Obs.Events(),
		cfg:    cfg,
		consumers: map[string]func(*cluster.Config){
			"lineage": func(c *cluster.Config) { c.Lineage = lin },
			"slo":     func(c *cluster.Config) { c.SLO = sl },
			"drift":   func(c *cluster.Config) { c.Drift = dr },
		},
	}, nil
}

// probeResults maps each probe's ns/op and allocs/op metric to its value;
// ns/op is scaled to the reference host like every time metric.
type probeResults map[string]float64

// probeRefSamples reference samples precede each probe; their median scales
// its ns/op.
const probeRefSamples = 3

// runProbes runs every probe at scale × its full operation count.
func runProbes(scale float64) (probeResults, error) {
	ps, err := newProbeSet()
	if err != nil {
		return nil, err
	}
	out := probeResults{}
	for _, p := range probes {
		refs := make([]float64, probeRefSamples)
		for i := range refs {
			refs[i] = refKernel()
		}
		runtime.GC()
		ops, m, err := p.run(ps, max(1, int(float64(p.n)*scale)))
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		if ops <= 0 {
			return nil, fmt.Errorf("probe %s made no operations", p.name)
		}
		out[p.name] = float64(m.d.Nanoseconds()) / float64(ops) * refNominalS / median(refs)
		out[allocsName(p.name)] = float64(m.mallocs) / float64(ops)
	}
	return out, nil
}

// probeSchedule times a self-rescheduling event chain: the bare engine.
func probeSchedule(_ *probeSet, n int) (int, meter, error) {
	var m meter
	e := sim.NewEnv()
	count := 0
	var self func()
	self = func() {
		count++
		if count < n {
			e.Schedule(time.Microsecond, self)
		}
	}
	e.Schedule(0, self)
	m.start()
	e.Run()
	m.stop()
	return count, m, nil
}

// probeProcSwitch times Proc.Sleep round trips: one park and wake each.
func probeProcSwitch(_ *probeSet, n int) (int, meter, error) {
	var m meter
	e := sim.NewEnv()
	e.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	m.start()
	e.Run()
	m.stop()
	return n, m, nil
}

// probeResource times Pipe.Transfer with 12 concurrent flows sharing one
// pipe, so every arrival and departure re-shares the bandwidth.
func probeResource(_ *probeSet, n int) (int, meter, error) {
	const flows = 12
	var m meter
	e := sim.NewEnv()
	pipe := resource.NewPipe(e, "nvm", 1e9, resource.FlatScaling())
	per := max(1, n/flows)
	for i := 0; i < flows; i++ {
		e.Go(fmt.Sprintf("flow%d", i), func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				pipe.Transfer(p, 64<<10+int64(i)<<10)
			}
		})
	}
	m.start()
	e.Run()
	m.stop()
	return flows * per, m, nil
}

// probeFabric times Fabric.Transfer on a 16-node ring, every node sending.
func probeFabric(_ *probeSet, n int) (int, meter, error) {
	const nodes = 16
	var m meter
	e := sim.NewEnv()
	f := interconnect.New(e, nodes, 1e9)
	per := max(1, n/nodes)
	for i := 0; i < nodes; i++ {
		e.Go(fmt.Sprintf("node%d", i), func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				f.Transfer(p, i, (i+1)%nodes, 64<<10, interconnect.ClassCkpt, 0)
			}
		})
	}
	m.start()
	e.Run()
	m.stop()
	return nodes * per, m, nil
}

// newKernel is a one-node machine for the kernel and core probes.
func newKernel(e *sim.Env) *nvmkernel.Kernel {
	return nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB))
}

// runApp runs fn as the environment's application process to completion
// and returns its error.
func runApp(e *sim.Env, fn func(p *sim.Proc) error) error {
	var err error
	e.Go("app", func(p *sim.Proc) { err = fn(p) })
	e.Run()
	return err
}

// probeMeta times a SetMeta + GetMeta pair on the chunk-metadata keys core
// uses.
func probeMeta(_ *probeSet, n int) (int, meter, error) {
	var m meter
	e := sim.NewEnv()
	pr := newKernel(e).Attach("rank0")
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("cmeta/%d", core.GenID(fmt.Sprintf("chunk%d", i)))
	}
	err := runApp(e, func(p *sim.Proc) error {
		m.start()
		for i := 0; i < n; i++ {
			k := keys[i%len(keys)]
			pr.SetMeta(p, k, i)
			pr.GetMeta(p, k)
		}
		m.stop()
		return nil
	})
	return n, m, err
}

// probeTouchWrite times the first-write protection fault on a protected
// region: re-protect, then a write that faults into the handler.
func probeTouchWrite(_ *probeSet, n int) (int, meter, error) {
	var m meter
	e := sim.NewEnv()
	r, err := newKernel(e).Attach("rank0").DRAMAlloc("field", 64<<10, 64)
	if err != nil {
		return 0, m, err
	}
	r.SetFaultHandler(func(p *sim.Proc, r *nvmkernel.Region, _ int) { r.Unprotect(p) })
	err = runApp(e, func(p *sim.Proc) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			r.Protect(p)
			if _, err := r.TouchWrite(p, 0, 8); err != nil {
				return err
			}
		}
		return nil
	})
	return n, m, err
}

// probePayloadCap caps each probe chunk's real payload as the paper-scale
// presets do, so copies and checksums cost what they cost in a cluster run.
const probePayloadCap = 2048

// newStore attaches a store to k and allocates count 64 KiB persistent
// chunks in it.
func newStore(p *sim.Proc, k *nvmkernel.Kernel, count int) (*core.Store, []*core.Chunk, error) {
	s := core.NewStore(k.Attach("rank0"), core.Options{PayloadCap: probePayloadCap})
	chunks := make([]*core.Chunk, count)
	for i := range chunks {
		c, err := s.NVAlloc(p, fmt.Sprintf("chunk%d", i), 64<<10, true)
		if err != nil {
			return nil, nil, err
		}
		chunks[i] = c
	}
	return s, chunks, nil
}

func writeAll(p *sim.Proc, chunks []*core.Chunk) error {
	for _, c := range chunks {
		if err := c.WriteAll(p); err != nil {
			return err
		}
	}
	return nil
}

// probeStage times ChkptAll over 64 dirty chunks, per chunk staged.
func probeStage(_ *probeSet, n int) (int, meter, error) {
	var m meter
	staged := 0
	e := sim.NewEnv()
	k := newKernel(e)
	err := runApp(e, func(p *sim.Proc) error {
		s, cs, err := newStore(p, k, 64)
		if err != nil {
			return err
		}
		for staged < n {
			if err := writeAll(p, cs); err != nil {
				return err
			}
			m.start()
			st := s.ChkptAll(p)
			m.stop()
			if st.ChunksCopied == 0 {
				return errors.New("checkpoint staged nothing")
			}
			staged += st.ChunksCopied
		}
		return nil
	})
	return staged, m, err
}

// probeSnapshot times Store.Snapshot over 64 staged chunks, per call.
func probeSnapshot(_ *probeSet, n int) (int, meter, error) {
	var m meter
	e := sim.NewEnv()
	k := newKernel(e)
	err := runApp(e, func(p *sim.Proc) error {
		s, cs, err := newStore(p, k, 64)
		if err != nil {
			return err
		}
		if err := writeAll(p, cs); err != nil {
			return err
		}
		s.ChkptAll(p)
		m.start()
		for i := 0; i < n; i++ {
			s.Snapshot(p)
		}
		m.stop()
		return nil
	})
	return n, m, err
}

// probeShip times a burst remote checkpoint (TriggerRemote until the remote
// commit) of a store holding chunks chunks, per chunk shipped. The helper
// rescans the store for every chunk it ships, so the cost per chunk grows
// with the store and the c64/c256 gap exposes that scan.
func probeShip(chunks int) func(*probeSet, int) (int, meter, error) {
	return func(_ *probeSet, n int) (int, meter, error) {
		var m meter
		e := sim.NewEnv()
		fabric := interconnect.New(e, 2, 0)
		nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
		k := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0])
		agent := remote.NewMesh(e, fabric, nvms).AddAgent(0, 1, remote.Config{Scheme: remote.AsyncBurst})
		err := runApp(e, func(p *sim.Proc) error {
			defer agent.Stop()
			s, cs, err := newStore(p, k, chunks)
			if err != nil {
				return err
			}
			agent.Register(s)
			for agent.Counters.Get("ships") < int64(n) {
				if err := writeAll(p, cs); err != nil {
					return err
				}
				s.ChkptAll(p)
				m.start()
				agent.TriggerRemote(p).Await(p)
				m.stop()
			}
			return nil
		})
		return int(agent.Counters.Get("ships")), m, err
	}
}

// probeEmit times Recorder.Emit of a chunk event onto the bus.
func probeEmit(_ *probeSet, n int) (int, meter, error) {
	var m meter
	o := obs.New(sim.NewEnv())
	rec := o.Recorder(0, "rank0")
	attrs := map[string]string{"seq": "1", "version": "0"}
	m.start()
	for i := 0; i < n; i++ {
		rec.Emit(obs.EvChunkStaged, "rank0/field", 64<<10, attrs)
	}
	m.stop()
	return n, m, nil
}

// probeCounterAdd times Recorder.Add, which books the scoped counter and the
// cluster rollup.
func probeCounterAdd(_ *probeSet, n int) (int, meter, error) {
	var m meter
	rec := obs.New(sim.NewEnv()).Recorder(0, "rank0")
	m.start()
	for i := 0; i < n; i++ {
		rec.Add("ckpt_bytes", 4096)
	}
	m.stop()
	return n, m, nil
}

// probeFold times one bus consumer's fold: faults-observed's recorded bus
// stream is replayed through env.At + Emit with only that consumer attached,
// and again with none. The difference of the two sides' median replays, per
// event, is the consumer's cost; it can read below zero when the fold costs
// less than the host's noise. Replays alternate so host drift hits both
// sides alike.
func probeFold(layer string) func(*probeSet, int) (int, meter, error) {
	return func(ps *probeSet, n int) (int, meter, error) {
		var withD, withoutD, withM, withoutM []float64
		for i := 0; i < max(1, n/len(ps.stream)); i++ {
			without, err := ps.replay(nil)
			if err != nil {
				return 0, meter{}, err
			}
			with, err := ps.replay(ps.consumers[layer])
			if err != nil {
				return 0, meter{}, err
			}
			withD, withoutD = append(withD, float64(with.d)), append(withoutD, float64(without.d))
			withM, withoutM = append(withM, float64(with.mallocs)), append(withoutM, float64(without.mallocs))
		}
		return len(ps.stream), meter{
			d:       time.Duration(median(withD) - median(withoutD)),
			mallocs: int64(median(withM) - median(withoutM)),
		}, nil
	}
}

// replay emits the recorded stream into a fresh faults-observed cluster
// (with attach applied to its configuration) at the events' virtual times,
// and meters the replay.
func (ps *probeSet) replay(attach func(*cluster.Config)) (meter, error) {
	var m meter
	cfg := ps.cfg
	if attach != nil {
		attach(&cfg)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return m, err
	}
	for _, ev := range ps.stream {
		c.Env.At(ev.Time(), func() { c.Obs.Emit(ev) })
	}
	m.start()
	c.Env.Run()
	m.stop()
	return m, nil
}
