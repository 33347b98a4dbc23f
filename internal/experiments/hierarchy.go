package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/pfs"
	"nvmcp/internal/report"
	"nvmcp/internal/sim"
)

// HierarchyResult compares checkpointing straight to the PFS against the
// full three-level hierarchy (local NVM → buddy NVM → PFS drain).
type HierarchyResult struct {
	Ideal time.Duration

	// PFSDirect: every coordinated checkpoint blocks on the shared PFS.
	PFSDirectExec time.Duration
	PFSDirectOvh  float64

	// Multilevel: local NVM checkpoints (DCPCP) + async buddy + lazy PFS
	// drain. Exec overhead plus the durability ladder latencies.
	MultiExec time.Duration
	MultiOvh  float64
	// LocalLatency is the blocking local checkpoint time per round.
	LocalLatency time.Duration
	// RemoteLatency is trigger→remote-commit for the last round.
	RemoteLatency time.Duration
	// PFSLatency is the end-of-run drain sweep's duration. The bottom tier
	// drains behind each remote commit, so the sweep finds nothing left and
	// this reads 0; EXPERIMENTS.md gives the per-chunk commit→PFS lag.
	PFSLatency time.Duration
	// PFSObjects is how many checkpoint objects reached the PFS.
	PFSObjects int
}

// RunHierarchy reproduces the paper's Section I/II motivation: PFS-only
// checkpointing does not scale (all ranks contend for a few GB/s of global
// I/O bandwidth — the cited multilevel work reports 30-40% improvements),
// while the multilevel design keeps the blocking path at local-NVM speed and
// pushes durability outward asynchronously: buddy NVM within the remote
// interval, PFS eventually via a lazy drain.
func RunHierarchy(scale Scale) HierarchyResult {
	multi := lower(preset("hierarchy", scale))
	var out HierarchyResult
	out.Ideal = idealTime(multi)

	// --- PFS-direct --------------------------------------------------------
	out.PFSDirectExec = pfsDirect(multi)
	out.PFSDirectOvh = overhead(out.PFSDirectExec, out.Ideal)

	// --- Multilevel: local + buddy + PFS drain, one composed cluster run ----
	res, _ := cluster.MustRun(multi)
	out.MultiExec = res.ExecTime
	out.MultiOvh = overhead(res.ExecTime, out.Ideal)
	out.LocalLatency = res.CkptTimePerRank / time.Duration(res.LocalCkpts)

	// Remote latency: approximate as the post-trigger catch-up window —
	// bounded by one node's checkpoint volume at the shipping budget.
	nodeD := float64(multi.App.CheckpointSize()) * float64(multi.CoresPerNode)
	out.RemoteLatency = time.Duration(nodeD / multi.RemoteRateCap * float64(time.Second))

	out.PFSLatency = res.BottomDrainTime
	out.PFSObjects = res.BottomObjects
	return out
}

// pfsDirect runs the iterate/checkpoint loop with every rank writing its
// checkpoint synchronously to the shared PFS.
func pfsDirect(cfg cluster.Config) time.Duration {
	env := sim.NewEnv()
	fs := pfs.New(env)
	ranks := cfg.Nodes * cfg.CoresPerNode
	barrier := sim.NewBarrier(env, ranks)
	ckptSize := cfg.App.CheckpointSize()
	var done time.Duration
	for r := 0; r < ranks; r++ {
		env.Go(fmt.Sprintf("pfs-rank%d", r), func(p *sim.Proc) {
			for iter := 0; iter < cfg.Iterations; iter++ {
				p.Sleep(cfg.App.IterTime)
				barrier.Await(p)
				fs.Write(p, fmt.Sprintf("ckpt/%d", r), ckptSize, uint64(iter+1), nvmkernel.Payload{})
				barrier.Await(p)
			}
			if t := p.Now(); t > done {
				done = t
			}
		})
	}
	env.Run()
	return done
}

// PrintHierarchy renders the comparison.
func PrintHierarchy(w io.Writer, r HierarchyResult) {
	fmt.Fprintln(w, "== Storage hierarchy: PFS-direct vs multilevel (local NVM -> buddy -> PFS) ==")
	tb := &report.Table{Header: []string{"scheme", "exec time", "overhead"}}
	tb.AddRow("ideal (no checkpoints)", r.Ideal.Round(time.Millisecond).String(), "-")
	tb.AddRow("PFS-direct (blocking)", r.PFSDirectExec.Round(time.Millisecond).String(), report.FmtPctFixed(r.PFSDirectOvh))
	tb.AddRow("multilevel (NVM-checkpoints)", r.MultiExec.Round(time.Millisecond).String(), report.FmtPctFixed(r.MultiOvh))
	tb.Write(w)
	fmt.Fprintf(w, "multilevel durability ladder: local %v (blocking) -> buddy ~%v (async) -> PFS +%v (lazy drain, %d objects)\n",
		r.LocalLatency.Round(time.Millisecond),
		r.RemoteLatency.Round(time.Millisecond),
		r.PFSLatency.Round(time.Millisecond),
		r.PFSObjects)
	fmt.Fprintln(w, "(the cited multilevel literature reports 30-40% improvement over PFS-only checkpointing)")
}
