package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/core"
	"nvmcp/internal/fault"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/model"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/remote"
	"nvmcp/internal/report"
	"nvmcp/internal/sim"
	"nvmcp/internal/transparent"
	"nvmcp/internal/workload"
)

// ---------------------------------------------------------------------------
// Restart-path comparison (the paper's future-work recovery optimization).

// RestartRow compares recovery paths for one checkpoint size.
type RestartRow struct {
	CkptSize int64
	// EagerLocal is the classic restart: every chunk copied NVM→DRAM
	// before the application resumes.
	EagerLocal time.Duration
	// LazyResume is the time until the application can resume with lazy
	// restore (allocation only).
	LazyResume time.Duration
	// LazyFirstIter is lazy resume plus the first full iteration, during
	// which the deferred copies materialize on touch.
	LazyFirstIter time.Duration
	// EagerFirstIter is eager restart plus one iteration, for comparison.
	EagerFirstIter time.Duration
	// RemoteFetch is the hard-failure path: every chunk pulled from the
	// buddy node across the fabric.
	RemoteFetch time.Duration
}

// RunRestart measures the three recovery paths over a checkpoint-size sweep
// using the GTC chunk profile: eager local restore (t ∝ D at NVM read
// speed), lazy restore (resume immediately, pay on touch — and chunks that
// are fully overwritten never pay), and remote fetch after a hard failure
// (t ∝ D at link speed).
func RunRestart() []RestartRow {
	sizes := []int64{100 * mem.MB, 400 * mem.MB, 1600 * mem.MB}
	rows := make([]RestartRow, len(sizes))
	sweep(len(sizes), func(i int) {
		rows[i] = restartPoint(sizes[i])
	})
	return rows
}

func restartPoint(size int64) RestartRow {
	spec := workload.GTC().ScaledTo(size)
	spec.IterTime = 10 * time.Second
	spec.CommPerIter = 0

	// Build one node + buddy, run one checkpointed life, remote-commit,
	// then measure each recovery path from identical state.
	prepare := func() (*sim.Env, *nvmkernel.Kernel, *remote.Mesh) {
		e := sim.NewEnv()
		fabric := interconnect.New(e, 2, 0)
		nvms := []*mem.Device{mem.NewPCM(e, 64*mem.GB), mem.NewPCM(e, 64*mem.GB)}
		k := nvmkernel.New(e, mem.NewDRAM(e, 64*mem.GB), nvms[0])
		mesh := remote.NewMesh(e, fabric, nvms)
		agent := mesh.AddAgent(0, 1, remote.Config{Scheme: remote.AsyncBurst})
		e.Go("life1", func(p *sim.Proc) {
			s := core.NewStore(k.Attach("rank0"), core.Options{})
			agent.Register(s)
			app, err := workload.Setup(p, s, spec)
			if err != nil {
				panic(err)
			}
			if err := app.Iterate(p); err != nil {
				panic(err)
			}
			s.ChkptAll(p)
			agent.TriggerRemote(p).Await(p)
			// Stop the helper so its poll loop stops generating events and
			// the simulation can drain.
			agent.Stop()
		})
		e.Run()
		mesh.RemoveAgent(0)
		k.SoftReset()
		return e, k, mesh
	}

	measure := func(lazy, iterate bool) time.Duration {
		e, k, _ := prepare()
		var took time.Duration
		e.Go("life2", func(p *sim.Proc) {
			start := p.Now()
			s := core.NewStore(k.Attach("rank0"), core.Options{LazyRestore: lazy})
			app, err := workload.Setup(p, s, spec)
			if err != nil {
				panic(err)
			}
			if iterate {
				if err := app.Iterate(p); err != nil {
					panic(err)
				}
			}
			took = p.Now() - start
		})
		e.Run()
		return took
	}

	remoteFetch := func() time.Duration {
		e, k, mesh := prepare()
		// Re-attach an agent so Fetch knows the buddy; stop it immediately —
		// only its routing is needed, not its poll loop.
		mesh.AddAgent(0, 1, remote.Config{Scheme: remote.AsyncBurst}).Stop()
		k.HardFail()
		var took time.Duration
		e.Go("life2", func(p *sim.Proc) {
			start := p.Now()
			s := core.NewStore(k.Attach("rank0"), core.Options{})
			app, err := workload.Setup(p, s, spec)
			if err != nil {
				panic(err)
			}
			for _, c := range app.Chunks {
				if c.Restored {
					continue
				}
				data, _, _, ok := mesh.Fetch(p, 0, "rank0", c.ID)
				if !ok {
					panic("remote copy missing for " + c.Name)
				}
				if err := s.AdoptRemote(p, c, data); err != nil {
					panic(err)
				}
			}
			took = p.Now() - start
		})
		e.Run()
		return took
	}

	return RestartRow{
		CkptSize:       size,
		EagerLocal:     measure(false, false),
		LazyResume:     measure(true, false),
		LazyFirstIter:  measure(true, true),
		EagerFirstIter: measure(false, true),
		RemoteFetch:    remoteFetch(),
	}
}

// PrintRestart renders the recovery-path comparison.
func PrintRestart(w io.Writer, rows []RestartRow) {
	fmt.Fprintln(w, "== Restart paths: eager local vs lazy restore vs remote fetch (GTC profile) ==")
	tb := &report.Table{Header: []string{
		"ckpt size", "eager local", "lazy resume", "eager+1 iter", "lazy+1 iter", "remote fetch",
	}}
	for _, r := range rows {
		tb.AddRow(
			report.FmtBytes(float64(r.CkptSize)),
			r.EagerLocal.Round(time.Millisecond).String(),
			r.LazyResume.Round(time.Microsecond).String(),
			r.EagerFirstIter.Round(time.Millisecond).String(),
			r.LazyFirstIter.Round(time.Millisecond).String(),
			r.RemoteFetch.Round(time.Millisecond).String(),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "(lazy restore resumes immediately and pays per chunk on first touch;")
	fmt.Fprintln(w, " fully-overwritten chunks — GTC's per-iteration arrays — never pay at all)")
}

// ---------------------------------------------------------------------------
// Transparent vs application-initiated checkpointing.

// TransparentRow compares the two checkpoint models at one footprint ratio.
type TransparentRow struct {
	Footprint  int64
	CkptState  int64
	AppT       time.Duration // application-initiated, chunk tracking
	FullT      time.Duration // transparent, full image copy
	IncrT      time.Duration // transparent, page-level incremental
	IncrFaults int64         // protection faults the incremental round paid
	AppBytes   int64
	FullBytes  int64
	IncrBytes  int64
}

// RunTransparent compares one steady-state checkpoint round of the three
// models for an application whose live checkpoint state is 400 MB inside a
// 1 GB process image, with half of the image's pages dirtied per iteration —
// the Section II trade-off (transparent = bigger volume; page-level
// incremental = per-page fault costs) made measurable.
func RunTransparent() TransparentRow {
	const (
		footprint = mem.GB
		ckptState = 400 * mem.MB
		dirtied   = footprint / 2
	)
	row := TransparentRow{Footprint: footprint, CkptState: ckptState}

	// Application-initiated: chunks for the live state only.
	{
		e := sim.NewEnv()
		k := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB))
		e.Go("app", func(p *sim.Proc) {
			s := core.NewStore(k.Attach("proc"), core.Options{})
			spec := workload.GTC().ScaledTo(ckptState)
			app, err := workload.Setup(p, s, spec)
			if err != nil {
				panic(err)
			}
			s.ChkptAll(p) // baseline round
			for _, c := range app.Chunks {
				c.WriteAll(p)
			}
			start := p.Now()
			st := s.ChkptAll(p)
			row.AppT = p.Now() - start
			row.AppBytes = st.BytesCopied
		})
		e.Run()
	}

	run := func(mode transparent.Mode) (time.Duration, int64, int64) {
		e := sim.NewEnv()
		k := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB))
		var dur time.Duration
		var bytes, faults int64
		e.Go("app", func(p *sim.Proc) {
			c, err := transparent.New(p, k.Attach("proc"), footprint)
			if err != nil {
				panic(err)
			}
			c.SetMode(mode)
			c.Checkpoint(p) // baseline round
			before := k.ProtectionFaults
			if err := c.Touch(p, 0, dirtied); err != nil {
				panic(err)
			}
			start := p.Now()
			st := c.Checkpoint(p)
			dur = p.Now() - start
			bytes = st.BytesCopied
			faults = k.ProtectionFaults - before
		})
		e.Run()
		return dur, bytes, faults
	}
	row.FullT, row.FullBytes, _ = run(transparent.FullCopy)
	row.IncrT, row.IncrBytes, row.IncrFaults = run(transparent.Incremental)
	return row
}

// PrintTransparent renders the model comparison.
func PrintTransparent(w io.Writer, r TransparentRow) {
	fmt.Fprintln(w, "== Transparent vs application-initiated checkpointing ==")
	fmt.Fprintf(w, "process image %s, live checkpoint state %s, half the image dirtied per iteration\n",
		report.FmtBytes(float64(r.Footprint)), report.FmtBytes(float64(r.CkptState)))
	tb := &report.Table{Header: []string{"model", "ckpt time", "bytes moved", "faults"}}
	tb.AddRow("application-initiated (chunks)", r.AppT.Round(time.Millisecond).String(),
		report.FmtBytes(float64(r.AppBytes)), "per chunk")
	tb.AddRow("transparent full copy", r.FullT.Round(time.Millisecond).String(),
		report.FmtBytes(float64(r.FullBytes)), "0")
	tb.AddRow("transparent incremental (page)", r.IncrT.Round(time.Millisecond).String(),
		report.FmtBytes(float64(r.IncrBytes)), fmt.Sprintf("%d", r.IncrFaults))
	tb.Write(w)
	fmt.Fprintln(w, "(Section II: transparent checkpoints move the whole footprint or pay per-page faults;")
	fmt.Fprintln(w, " application-initiated checkpoints move only the marked state at chunk-fault cost)")
}

// ---------------------------------------------------------------------------
// Failure-model validation: simulator vs Section III analytic model.

// FailureRow is one MTBF point: efficiency with real injected failures vs
// the analytic prediction.
type FailureRow struct {
	MTBF         time.Duration
	Failures     int
	SimEff       float64
	ModelEff     float64
	LocalRestore int64
}

// RunFailureModel injects exponentially-distributed soft failures at several
// machine MTBFs into a CM1 run and compares the measured efficiency
// (ideal/actual) against the Section III model's prediction for the same
// parameters. Seeded and deterministic.
func RunFailureModel(scale Scale) []FailureRow {
	mtbfs := []time.Duration{60 * time.Second, 120 * time.Second, 300 * time.Second}
	rows := make([]FailureRow, len(mtbfs))
	sweep(len(mtbfs), func(i int) {
		rows[i] = failurePoint(mtbfs[i], scale)
	})
	return rows
}

func failurePoint(mtbf time.Duration, scale Scale) FailureRow {
	sc := preset("failures", scale)
	// The preset shortens iterations to 5 s so its single fault at 12 s
	// lands mid-run. The MTBF sweep brings its own failure schedule and runs
	// at the scale's iteration length (10 s quick, CM1's natural 40 s at
	// paper scale), so the 60-300 s MTBFs strike 60 s or 240 s of compute.
	sc.Workload.IterSecs = scale.Scenario().IterSecs()
	sc.Failures = nil
	base := lower(sc)

	ideal := idealTime(base)

	// Exponential soft-failure schedule over a generous horizon, alternating
	// nodes, seeded for determinism. Failures landing while the job is
	// restarting are dropped by the cluster (documented behaviour).
	rng := rand.New(rand.NewSource(42))
	horizon := 3 * ideal
	var fails []fault.Event
	t := time.Duration(0)
	for i := 0; ; i++ {
		t += time.Duration(rng.ExpFloat64() * float64(mtbf))
		if t > horizon {
			break
		}
		fails = append(fails, fault.Event{At: t, Node: i % base.Nodes, Kind: fault.Soft})
	}
	cfg := base
	cfg.Failures = fails
	res, _ := cluster.MustRun(cfg)

	localMTBF, remoteMTBF := mtbf, 100000*time.Hour // soft-only injection
	params := model.Params{
		TCompute:      time.Duration(cfg.Iterations) * cfg.App.IterTime,
		MTBFLocal:     localMTBF,
		MTBFRemote:    remoteMTBF,
		IntervalLocal: cfg.App.IterTime,
		// Remote checkpointing disabled: one local per "remote interval".
		IntervalRemote: time.Duration(cfg.Iterations) * cfg.App.IterTime,
		CkptSize:       cfg.App.CheckpointSize(),
		NVMBWPerCore:   cfg.NVMPerCoreBW,
		// Remote terms are inert at these settings.
		RemoteBWPerCore:        1e12,
		RemoteOverheadFraction: 0,
	}
	return FailureRow{
		MTBF:         mtbf,
		Failures:     res.FailuresInjected,
		SimEff:       float64(ideal) / float64(res.ExecTime),
		ModelEff:     params.Efficiency(),
		LocalRestore: res.Restores,
	}
}

// PrintFailureModel renders the validation table.
func PrintFailureModel(w io.Writer, rows []FailureRow) {
	fmt.Fprintln(w, "== Failure injection: simulated efficiency vs Section III model ==")
	tb := &report.Table{Header: []string{"MTBF", "failures hit", "chunks restored", "sim efficiency", "model efficiency"}}
	for _, r := range rows {
		tb.AddRow(
			r.MTBF.String(),
			fmt.Sprintf("%d", r.Failures),
			fmt.Sprintf("%d", r.LocalRestore),
			fmt.Sprintf("%.3f", r.SimEff),
			fmt.Sprintf("%.3f", r.ModelEff),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "(soft failures only; every recovery restores from local NVM — the multilevel design's")
	fmt.Fprintln(w, " fast path. At low MTBF the first-order model is optimistic: it counts failures")
	fmt.Fprintln(w, " against compute time only, while in the simulation failures also strike during")
	fmt.Fprintln(w, " recovery and recomputation, compounding the lost work.)")
}
