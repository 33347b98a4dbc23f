package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/report"
	"nvmcp/internal/sim"
	"nvmcp/internal/workload"
)

// MADBenchRow compares the ramdisk and in-memory checkpoint paths at one
// per-core data size (Section IV's motivation experiment).
type MADBenchRow struct {
	SizePerCore int64
	RamdiskT    time.Duration
	MemoryT     time.Duration
	// Slowdown is (ramdisk-memory)/memory; the paper reports 46% at 300MB.
	Slowdown float64
	// SyncRatio is ramdisk kernel sync calls / memory path sync calls
	// (paper: ~3x).
	SyncRatio float64
	// LockWaitRamdisk / LockWaitMemory are the kernel-lock waiting times
	// (paper: ramdisk waits 31% more).
	LockWaitRamdisk time.Duration
	LockWaitMemory  time.Duration
}

// RunMADBench sweeps the MADBench2-style checkpoint from 50 to 300 MB/core
// on a 12-core node, comparing the ramdisk (VFS) and memory (allocation +
// memcpy) approaches — both ultimately writing the same DRAM.
func RunMADBench() []MADBenchRow {
	const cores = 12
	var rows []MADBenchRow
	for _, size := range []int64{50 * mem.MB, 100 * mem.MB, 200 * mem.MB, 300 * mem.MB} {
		e1 := sim.NewEnv()
		fs := workload.MADBenchRamdisk(e1, mem.NewDRAM(e1, 64*mem.GB), cores, size)
		e2 := sim.NewEnv()
		m := workload.MADBenchMemory(e2, mem.NewDRAM(e2, 64*mem.GB), cores, size)
		rows = append(rows, MADBenchRow{
			SizePerCore:     size,
			RamdiskT:        fs.CheckpointT,
			MemoryT:         m.CheckpointT,
			Slowdown:        float64(fs.CheckpointT-m.CheckpointT) / float64(m.CheckpointT),
			SyncRatio:       float64(fs.SyncCalls) / float64(m.SyncCalls),
			LockWaitRamdisk: fs.LockWait,
			LockWaitMemory:  m.LockWait,
		})
	}
	return rows
}

// PrintMADBench renders the comparison.
func PrintMADBench(w io.Writer, rows []MADBenchRow) {
	fmt.Fprintln(w, "== MADBench2: ramdisk vs in-memory checkpoint, 12 cores (Section IV) ==")
	tb := &report.Table{Header: []string{
		"size/core", "ramdisk", "memory", "slowdown", "sync-call ratio", "lock wait (rd)", "lock wait (mem)",
	}}
	for _, r := range rows {
		tb.AddRow(
			report.FmtBytes(float64(r.SizePerCore)),
			r.RamdiskT.Round(time.Microsecond).String(),
			r.MemoryT.Round(time.Microsecond).String(),
			report.FmtPctFixed(r.Slowdown),
			fmt.Sprintf("%.1fx", r.SyncRatio),
			r.LockWaitRamdisk.Round(time.Microsecond).String(),
			r.LockWaitMemory.Round(time.Microsecond).String(),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "(paper: ramdisk 46% slower at 300MB, 3x more kernel sync calls, 31% more lock waiting)")
}
