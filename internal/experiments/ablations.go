package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/report"
	"nvmcp/internal/sim"
)

// ---------------------------------------------------------------------------
// ABL-PAGE: page-level vs chunk-level protection granularity.

// PageAblationRow compares the dirty-tracking cost of one full rewrite of a
// data set under page-level vs chunk-level write protection.
type PageAblationRow struct {
	DataSize  int64
	PageTime  time.Duration // fault cost with per-page protection
	ChunkTime time.Duration // fault cost with chunk-level protection
	// PageFaults and ChunkFaults count protection faults taken.
	PageFaults  int64
	ChunkFaults int64
}

// RunPageAblation quantifies the paper's Section IV argument: HPC checkpoint
// data structures fully change each iteration, so page-level pre-copy pays a
// 6-12 µs fault on *every* page (~3 s per GB), while chunk-level protection
// pays one fault per chunk. The data is organized as 16 MB chunks and fully
// rewritten once.
func RunPageAblation() []PageAblationRow {
	var rows []PageAblationRow
	for _, size := range []int64{64 * mem.MB, 256 * mem.MB, mem.GB} {
		rows = append(rows, PageAblationRow{
			DataSize:    size,
			PageTime:    protectionRewriteCost(size, true),
			ChunkTime:   protectionRewriteCost(size, false),
			PageFaults:  size / mem.PageSize,
			ChunkFaults: size / (16 * mem.MB),
		})
	}
	return rows
}

// protectionRewriteCost measures the virtual time of fully rewriting size
// bytes of protected chunks under the chosen protection granularity.
func protectionRewriteCost(size int64, pageLevel bool) time.Duration {
	env := sim.NewEnv()
	k := nvmkernel.New(env, mem.NewDRAM(env, 2*size+mem.GB), mem.NewPCM(env, mem.GB))
	var elapsed time.Duration
	env.Go("app", func(p *sim.Proc) {
		pr := k.Attach("abl")
		const chunkSize = 16 * mem.MB
		var regions []*nvmkernel.Region
		for off := int64(0); off < size; off += chunkSize {
			r, err := pr.DRAMAlloc(fmt.Sprintf("c%d", off), chunkSize, 0)
			if err != nil {
				panic(err)
			}
			if pageLevel {
				r.SetFaultHandler(func(p *sim.Proc, fr *nvmkernel.Region, page int) {
					fr.UnprotectPage(p, page)
				})
			} else {
				r.SetFaultHandler(func(p *sim.Proc, fr *nvmkernel.Region, page int) {
					fr.Unprotect(p)
				})
			}
			r.Protect(p)
			regions = append(regions, r)
		}
		start := p.Now()
		for _, r := range regions {
			if _, err := r.TouchWrite(p, 0, chunkSize); err != nil {
				panic(err)
			}
		}
		elapsed = p.Now() - start
	})
	env.Run()
	return elapsed
}

// PrintPageAblation renders the comparison.
func PrintPageAblation(w io.Writer, rows []PageAblationRow) {
	fmt.Fprintln(w, "== Ablation: page-level vs chunk-level pre-copy protection ==")
	tb := &report.Table{Header: []string{"data", "page faults", "page-level cost", "chunk faults", "chunk-level cost"}}
	for _, r := range rows {
		tb.AddRow(
			report.FmtBytes(float64(r.DataSize)),
			fmt.Sprintf("%d", r.PageFaults),
			r.PageTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", r.ChunkFaults),
			r.ChunkTime.Round(time.Microsecond).String(),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "(paper: 6-12us per fault, ~3s of fault handling per GB at page granularity)")
}

// ---------------------------------------------------------------------------
// ABL-DIRECT: direct NVM heap vs shadow buffering.

// DirectAblationRow compares placing the working set directly in NVM against
// shadow buffering, at one write intensity.
type DirectAblationRow struct {
	// WriteRatio is bytes written per iteration / checkpoint size.
	WriteRatio int
	DirectT    time.Duration // working set in NVM: every store pays NVM bandwidth
	ShadowT    time.Duration // working set in DRAM + checkpoint copy
	IdealT     time.Duration // DRAM only, no checkpointing
	// Slowdowns vs ideal.
	DirectSlowdown float64
	ShadowSlowdown float64
}

// RunDirectAblation reproduces the Li et al. observation the paper leans on:
// exposing NVM directly as the compute heap slows write-intensive codes (up
// to ~25%), which is why NVM-checkpoints keeps computation in DRAM and
// shadow-buffers to NVM. One core iterates: compute 10 s, write
// ratio × 100 MB of working data, checkpoint 100 MB.
func RunDirectAblation() []DirectAblationRow {
	const (
		ckptSize = 100 * mem.MB
		compute  = 10 * time.Second
		iters    = 5
	)
	run := func(ratio int, direct bool) time.Duration {
		env := sim.NewEnv()
		dram := mem.NewDRAM(env, 8*mem.GB)
		nvm := mem.NewPCM(env, 8*mem.GB)
		env.Go("app", func(p *sim.Proc) {
			for i := 0; i < iters; i++ {
				p.Sleep(compute)
				writes := int64(ratio) * ckptSize
				if direct {
					// Stores go straight to the NVM heap.
					nvm.WriteBytes(p, writes)
				} else {
					// Stores hit DRAM; the checkpoint copies once.
					dram.WriteBytes(p, writes)
					mem.Copy(p, dram, nvm, ckptSize)
				}
			}
		})
		env.Run()
		return env.Now()
	}
	ideal := func(ratio int) time.Duration {
		env := sim.NewEnv()
		dram := mem.NewDRAM(env, 8*mem.GB)
		env.Go("app", func(p *sim.Proc) {
			for i := 0; i < iters; i++ {
				p.Sleep(compute)
				dram.WriteBytes(p, int64(ratio)*ckptSize)
			}
		})
		env.Run()
		return env.Now()
	}
	var rows []DirectAblationRow
	for _, ratio := range []int{1, 4, 16, 64} {
		id := ideal(ratio)
		d := run(ratio, true)
		s := run(ratio, false)
		rows = append(rows, DirectAblationRow{
			WriteRatio:     ratio,
			DirectT:        d,
			ShadowT:        s,
			IdealT:         id,
			DirectSlowdown: overhead(d, id),
			ShadowSlowdown: overhead(s, id),
		})
	}
	return rows
}

// PrintDirectAblation renders the comparison.
func PrintDirectAblation(w io.Writer, rows []DirectAblationRow) {
	fmt.Fprintln(w, "== Ablation: direct NVM heap vs shadow buffering ==")
	tb := &report.Table{Header: []string{"write ratio", "direct", "shadow", "ideal", "direct slowdown", "shadow slowdown"}}
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%dx", r.WriteRatio),
			r.DirectT.Round(time.Millisecond).String(),
			r.ShadowT.Round(time.Millisecond).String(),
			r.IdealT.Round(time.Millisecond).String(),
			report.FmtPctFixed(r.DirectSlowdown),
			report.FmtPctFixed(r.ShadowSlowdown),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "(paper, citing Li et al.: direct NVM slows write-intensive codes up to ~25%)")
}

// ---------------------------------------------------------------------------
// ABL-SERIAL: dedicated-core serialized copy vs parallel fair sharing.

// SerialAblationRow compares Dong et al.'s dedicated-checkpoint-core
// serialization against NVM-checkpoints' parallel per-core copies.
type SerialAblationRow struct {
	DataPerCore int64
	SerialT     time.Duration
	ParallelT   time.Duration
	// SerialPenalty is (serial-parallel)/parallel.
	SerialPenalty float64
}

// SerialHandoff is the per-chunk producer/consumer cost of funnelling copies
// through a dedicated core (queueing, lock, wakeup).
const SerialHandoff = 150 * time.Microsecond

// RunSerialAblation shows why the paper rejects thread-level serialization:
// with 12 cores' checkpoints funnelled through one helper core, each chunk
// pays a handoff, which dominates when per-core data is small — "slower
// checkpoints when the total checkpoint data size is less than the effective
// per core bandwidth".
func RunSerialAblation() []SerialAblationRow {
	const cores = 12
	run := func(perCore int64, serial bool) time.Duration {
		env := sim.NewEnv()
		nvm := mem.NewPCM(env, 64*mem.GB)
		if serial {
			env.Go("helper", func(p *sim.Proc) {
				for i := 0; i < cores; i++ {
					p.Sleep(SerialHandoff)
					nvm.WriteBytes(p, perCore)
				}
			})
		} else {
			for i := 0; i < cores; i++ {
				env.Go(fmt.Sprintf("core%d", i), func(p *sim.Proc) {
					nvm.WriteBytes(p, perCore)
				})
			}
		}
		env.Run()
		return env.Now()
	}
	var rows []SerialAblationRow
	for _, perCore := range []int64{256 * mem.KB, mem.MB, 16 * mem.MB, 128 * mem.MB} {
		s := run(perCore, true)
		par := run(perCore, false)
		rows = append(rows, SerialAblationRow{
			DataPerCore:   perCore,
			SerialT:       s,
			ParallelT:     par,
			SerialPenalty: overhead(s, par),
		})
	}
	return rows
}

// PrintSerialAblation renders the comparison.
func PrintSerialAblation(w io.Writer, rows []SerialAblationRow) {
	fmt.Fprintln(w, "== Ablation: dedicated-core serialized copy vs parallel copies (12 cores) ==")
	tb := &report.Table{Header: []string{"data/core", "serialized", "parallel", "serialization penalty"}}
	for _, r := range rows {
		tb.AddRow(
			report.FmtBytes(float64(r.DataPerCore)),
			r.SerialT.Round(time.Microsecond).String(),
			r.ParallelT.Round(time.Microsecond).String(),
			report.FmtPctFixed(r.SerialPenalty),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "(penalty shrinks as per-core data grows: serialization only hurts small checkpoints)")
}
