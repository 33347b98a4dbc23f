// GTC example: a multi-node run of the synthetic Gyrokinetic Toroidal Code
// with the full NVM-checkpoint stack — DCPCP local pre-copy plus asynchronous
// remote pre-copy checkpoints to buddy nodes — compared against the classic
// no-pre-copy baseline on the same cluster.
//
// Run with:
//
//	go run ./examples/gtc
package main

import (
	"fmt"
	"os"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/workload"
)

func main() {
	// 2 nodes x 4 cores keeps the example fast; the experiment harness
	// (cmd/nvmcp-bench -scale paper) runs the full 48-rank configuration.
	app := workload.GTC().ScaledTo(120 * mem.MB)
	app.IterTime = 10 * time.Second

	base := cluster.Config{
		Nodes:        2,
		CoresPerNode: 4,
		App:          app,
		Iterations:   4,
		NVMPerCoreBW: 400e6, // constrained NVM: the regime pre-copy targets
		LinkBW:       250e6,
		RemoteEvery:  2,
	}

	fmt.Printf("GTC: %d ranks, %s checkpoint data per rank, local checkpoint every %v, remote every %d-th\n\n",
		base.Nodes*base.CoresPerNode, report.FmtBytes(float64(app.CheckpointSize())),
		app.IterTime, base.RemoteEvery)

	ideal := base
	ideal.NoCheckpoint = true
	idealRes, _ := cluster.MustRun(ideal)

	baseline := base
	baseline.ForceFull = true
	baseline.Local = "none"
	baseline.Remote = "buddy-burst"
	baseRes, baseC := cluster.MustRun(baseline)

	tuned := base
	tuned.Local = "dcpcp"
	tuned.Remote = "buddy-precopy"
	tuned.RemoteRateCap = scenario.AutoRemoteRateCap(
		app.CheckpointSize(), base.CoresPerNode, app.IterTime, base.RemoteEvery)
	tunedRes, tunedC := cluster.MustRun(tuned)

	tb := &report.Table{Header: []string{"configuration", "exec time", "overhead", "ckpt block/rank", "data->NVM/rank", "peak link (5s)"}}
	row := func(name string, res cluster.Result, c *cluster.Cluster) {
		ovh := float64(res.ExecTime-idealRes.ExecTime) / float64(idealRes.ExecTime)
		peak, _ := c.Fabric.PeakCkptWindow(res.ExecTime, 5*time.Second)
		tb.AddRow(name,
			res.ExecTime.Round(time.Millisecond).String(),
			report.FmtPctFixed(ovh),
			res.CkptTimePerRank.Round(time.Millisecond).String(),
			report.FmtBytes(res.DataToNVMPerRank),
			report.FmtBytes(peak),
		)
	}
	tb.AddRow("ideal (no checkpoints)", idealRes.ExecTime.Round(time.Millisecond).String(), "-", "-", "-", "-")
	row("no pre-copy (classic)", baseRes, baseC)
	row("NVM-checkpoints (DCPCP + remote pre-copy)", tunedRes, tunedC)
	tb.Write(os.Stdout)

	fmt.Printf("\nGTC detail: dirty tracking skipped the init-only grid after the first checkpoint\n")
	fmt.Printf("  baseline data to NVM per rank: %s; tuned: %s\n",
		report.FmtBytes(baseRes.DataToNVMPerRank), report.FmtBytes(tunedRes.DataToNVMPerRank))
	fmt.Printf("  checkpoint traffic shipped to buddies: baseline %s, tuned %s\n",
		report.FmtBytes(baseC.Fabric.Bytes(interconnect.ClassCkpt)),
		report.FmtBytes(tunedC.Fabric.Bytes(interconnect.ClassCkpt)))
}
