// LAMMPS example: compares all four local pre-copy schemes (none, CPC, DCPC,
// DCPCP) on the synthetic LAMMPS Rhodo workload, whose hot 3D position array
// keeps changing until the end of each iteration (Figure 6's C3 chunk) — the
// access pattern the prediction table exists for.
//
// Run with:
//
//	go run ./examples/lammps
package main

import (
	"fmt"
	"os"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/mem"
	"nvmcp/internal/report"
	"nvmcp/internal/workload"
)

func main() {
	app := workload.LAMMPSRhodo().ScaledTo(120 * mem.MB)
	app.IterTime = 10 * time.Second

	base := cluster.Config{
		Nodes:        2,
		CoresPerNode: 4,
		App:          app,
		Iterations:   4,
		NVMPerCoreBW: 200e6, // strongly constrained NVM
	}

	fmt.Printf("LAMMPS Rhodo: %d ranks, %s/rank, NVM %s per core\n",
		base.Nodes*base.CoresPerNode, report.FmtBytes(float64(app.CheckpointSize())),
		report.FmtRate(base.NVMPerCoreBW))
	fmt.Println("hot chunk x-positions is modified 3x per iteration, last at 95% of the interval")
	fmt.Println()

	ideal := base
	ideal.NoCheckpoint = true
	idealRes, _ := cluster.MustRun(ideal)

	type schemeRun struct {
		name      string
		policy    string
		forceFull bool
	}
	runs := []schemeRun{
		{"no pre-copy (full checkpoint)", "none", true},
		{"CPC (eager chunk pre-copy)", "cpc", false},
		{"DCPC (delayed)", "dcpc", false},
		{"DCPCP (delayed + prediction)", "dcpcp", false},
	}

	tb := &report.Table{Header: []string{"scheme", "exec time", "overhead", "ckpt block/rank", "data->NVM/rank"}}
	tb.AddRow("ideal (no checkpoints)", idealRes.ExecTime.Round(time.Millisecond).String(), "-", "-", "-")
	for _, r := range runs {
		cfg := base
		cfg.Local = r.policy
		cfg.ForceFull = r.forceFull
		res, _ := cluster.MustRun(cfg)
		ovh := float64(res.ExecTime-idealRes.ExecTime) / float64(idealRes.ExecTime)
		tb.AddRow(r.name,
			res.ExecTime.Round(time.Millisecond).String(),
			report.FmtPctFixed(ovh),
			res.CkptTimePerRank.Round(time.Millisecond).String(),
			report.FmtBytes(res.DataToNVMPerRank),
		)
	}
	tb.Write(os.Stdout)
	fmt.Println("\nCPC re-copies the hot chunk repeatedly (extra data moved); DCPCP learns its")
	fmt.Println("modification count in the first iteration and pre-copies it exactly once, after")
	fmt.Println("its final modification of the interval.")
}
