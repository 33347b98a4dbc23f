package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/mem"
	"nvmcp/internal/ramdisk"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/sim"
	"nvmcp/internal/workload"
)

// LocalPoint is one x-axis point of Figures 7/8 (and the CM1 variant): the
// application execution time and total data copied to NVM, for the pre-copy
// and no-pre-copy local checkpoint schemes, at one effective NVM bandwidth
// per core.
type LocalPoint struct {
	BWPerCore float64

	IdealExec   time.Duration
	NoPreExec   time.Duration
	PreExec     time.Duration
	RamdiskExec time.Duration

	// Per-rank data moved DRAM→NVM over the whole run (right axis).
	NoPreData float64
	PreData   float64

	// Overheads relative to the ideal (no-checkpoint) run.
	NoPreOverhead float64
	PreOverhead   float64
}

// LocalResult is a full Figure 7/8-style sweep for one application.
type LocalResult struct {
	App    string
	Scale  Scale
	Points []LocalPoint
}

// RunLocal reproduces the local-checkpoint experiments from their presets
// (id fig7: Figure 7, LAMMPS; fig8: Figure 8, GTC; cm1: the in-text CM1
// result): 48 ranks checkpoint every iteration; 'no pre-copy' is the classic
// full coordinated checkpoint, 'pre-copy' is DCPCP with dirty tracking; a
// ramdisk baseline writes the same volume through the VFS path.
func RunLocal(id string, scale Scale) LocalResult {
	out := LocalResult{App: preset(id, scale).Workload.App, Scale: scale}
	out.Points = make([]LocalPoint, len(BWSweepPerCore))
	sweep(len(BWSweepPerCore), func(i int) {
		bw := BWSweepPerCore[i]
		sc := preset(id, scale)
		sc.NVMPerCoreBW = bw
		pre := lower(sc)
		sc.Local = scenario.LocalSpec{Policy: "none", ForceFull: true}
		noPre := lower(sc)

		ideal := idealTime(pre)
		noPreRes, _ := cluster.MustRun(noPre)
		preRes, _ := cluster.MustRun(pre)

		out.Points[i] = LocalPoint{
			BWPerCore:     bw,
			IdealExec:     ideal,
			NoPreExec:     noPreRes.ExecTime,
			PreExec:       preRes.ExecTime,
			RamdiskExec:   ramdiskLocal(pre, ideal),
			NoPreData:     noPreRes.DataToNVMPerRank,
			PreData:       preRes.DataToNVMPerRank,
			NoPreOverhead: overhead(noPreRes.ExecTime, ideal),
			PreOverhead:   overhead(preRes.ExecTime, ideal),
		}
	})
	return out
}

// ramdiskLocal measures the same iterate/checkpoint loop with the local
// checkpoint written through a per-node ramdisk file system instead of the
// NVM staging path — the "RAMdisk approach" pre-copy is compared against.
// As in the paper, the ramdisk sits on the *emulated NVM* (NVM used as a
// fast disk), so it pays the same device bandwidth plus the VFS path costs.
func ramdiskLocal(cfg cluster.Config, ideal time.Duration) time.Duration {
	env := sim.NewEnv()
	ranks := cfg.Nodes * cfg.CoresPerNode
	barrier := sim.NewBarrier(env, ranks)
	ckptSize := cfg.App.CheckpointSize()

	fss := make([]*ramdisk.FS, cfg.Nodes)
	for n := range fss {
		var dev *mem.Device
		if cfg.NVMPerCoreBW > 0 {
			dev = mem.NewPCMWithPerCoreBW(env, cfg.NVMPerNode+64*mem.GB, cfg.NVMPerCoreBW, cfg.CoresPerNode)
		} else {
			dev = mem.NewPCM(env, cfg.NVMPerNode+64*mem.GB)
		}
		fss[n] = ramdisk.New(env, dev)
	}
	var done time.Duration
	for r := 0; r < ranks; r++ {
		env.Go(fmt.Sprintf("rd-rank%d", r), func(p *sim.Proc) {
			node := r / cfg.CoresPerNode
			f := fss[node].Open(p, fmt.Sprintf("ckpt.%d", r))
			for iter := 0; iter < cfg.Iterations; iter++ {
				p.Sleep(cfg.App.IterTime)
				barrier.Await(p)
				if err := f.Seek(p, 0); err != nil {
					panic(err)
				}
				for off := int64(0); off < ckptSize; off += workload.MADBenchIOSize {
					n := workload.MADBenchIOSize
					if off+n > ckptSize {
						n = ckptSize - off
					}
					if err := f.Write(p, n); err != nil {
						panic(err)
					}
				}
				barrier.Await(p)
			}
			if t := p.Now(); t > done {
				done = t
			}
		})
	}
	env.Run()
	// The loop above has no communication or fault costs, so normalize:
	// charge its checkpoint cost on top of the same ideal compute time.
	computeOnly := time.Duration(cfg.Iterations) * cfg.App.IterTime
	return ideal + (done - computeOnly)
}

// PrintLocal renders a LocalResult in the paper's two-axis form.
func PrintLocal(w io.Writer, r LocalResult) {
	fmt.Fprintf(w, "== Local checkpoint, %s (%s scale): pre-copy (DCPCP) vs no pre-copy vs ramdisk ==\n", r.App, r.Scale)
	tb := &report.Table{Header: []string{
		"NVM BW/core", "ideal", "no-pre exec", "pre exec", "ramdisk exec",
		"no-pre ovh", "pre ovh", "no-pre data/rank", "pre data/rank",
	}}
	for _, pt := range r.Points {
		tb.AddRow(
			report.FmtRate(pt.BWPerCore),
			pt.IdealExec.Round(time.Millisecond).String(),
			pt.NoPreExec.Round(time.Millisecond).String(),
			pt.PreExec.Round(time.Millisecond).String(),
			pt.RamdiskExec.Round(time.Millisecond).String(),
			report.FmtPctFixed(pt.NoPreOverhead),
			report.FmtPctFixed(pt.PreOverhead),
			report.FmtBytes(pt.NoPreData),
			report.FmtBytes(pt.PreData),
		)
	}
	tb.Write(w)
}
