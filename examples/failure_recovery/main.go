// Failure-recovery example: multilevel recovery in action. A 2-node CM1 run
// first survives a soft failure (processes die, node NVM survives — recovery
// restores every rank from its local NVM), then a hard failure (node 0's NVM
// is lost with the node — its ranks recover from the buddy's remote copy
// while node 1 restores locally).
//
// Run with:
//
//	go run ./examples/failure_recovery
package main

import (
	"fmt"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/fault"
	"nvmcp/internal/mem"
	"nvmcp/internal/workload"
)

func main() {
	app := workload.CM1().ScaledTo(80 * mem.MB)
	app.IterTime = 8 * time.Second

	base := cluster.Config{
		Nodes:        2,
		CoresPerNode: 2,
		App:          app,
		Iterations:   5,
		Local:        "dcpcp",
		Remote:       "buddy-burst",
		RemoteEvery:  1, // remote checkpoint every iteration: hard failures lose at most one
	}

	fmt.Println("--- run 1: soft failure at t=20s (node 0 reboots; NVM survives) ---")
	soft := base
	soft.Failures = []fault.Event{{At: 20 * time.Second, Node: 0, Kind: fault.Soft}}
	res, _ := cluster.MustRun(soft)
	report(res)

	fmt.Println("\n--- run 2: hard failure at t=20s (node 0 lost; NVM gone with it) ---")
	hard := base
	hard.Failures = []fault.Event{{At: 20 * time.Second, Node: 0, Kind: fault.Hard}}
	res, _ = cluster.MustRun(hard)
	report(res)

	fmt.Println("\n--- run 3: no failures, for comparison ---")
	res, _ = cluster.MustRun(base)
	report(res)
}

func report(res cluster.Result) {
	fmt.Printf("completed in %v: %d local checkpoints, %d failures injected\n",
		res.ExecTime.Round(time.Millisecond), res.LocalCkpts, res.FailuresInjected)
	fmt.Printf("recoveries: %d chunks restored from local NVM, %d fetched from buddy nodes\n",
		res.Restores, res.RemoteRestores)
}
