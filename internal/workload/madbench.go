package workload

import (
	"fmt"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/ramdisk"
	"nvmcp/internal/sim"
)

// MADBenchResult reports one MADBench2-style run (Section IV motivation
// experiment: ramdisk vs in-memory checkpointing of the same data to the
// same DRAM).
type MADBenchResult struct {
	Cores        int
	SizePerCore  int64
	CheckpointT  time.Duration // wall time of the coordinated write phase
	SyncCalls    int64         // kernel synchronization calls observed
	LockWait     time.Duration // time spent waiting on kernel locks
	BytesWritten int64
}

// MADBenchIOSize is the I/O call granularity of the driver (checkpoints
// write in bounded-size operations).
const MADBenchIOSize = 8 * mem.MB

// MADBenchRamdisk runs the checkpoint phase of MADBench2 through the
// ramdisk's file-system interface: every core opens its own file and writes
// sizePerCore bytes in MADBenchIOSize calls, all cores concurrently.
func MADBenchRamdisk(env *sim.Env, dram *mem.Device, cores int, sizePerCore int64) MADBenchResult {
	fs := ramdisk.New(env, dram)
	for i := 0; i < cores; i++ {
		env.Go(fmt.Sprintf("madbench-fs-%d", i), func(p *sim.Proc) {
			f := fs.Open(p, fmt.Sprintf("ckpt.%d", i))
			for off := int64(0); off < sizePerCore; off += MADBenchIOSize {
				n := MADBenchIOSize
				if off+n > sizePerCore {
					n = sizePerCore - off
				}
				if err := f.Write(p, n); err != nil {
					panic(err)
				}
			}
			f.Close(p)
		})
	}
	env.Run()
	return MADBenchResult{
		Cores:        cores,
		SizePerCore:  sizePerCore,
		CheckpointT:  env.Now(),
		SyncCalls:    fs.KernelSyncCalls,
		LockWait:     fs.LockWaitTime(),
		BytesWritten: fs.BytesWritten,
	}
}

// MADBenchMemory runs the same phase with each I/O call replaced by an
// allocation plus memcpy (exactly the paper's substitution): per operation,
// one allocator-lock acquisition with a short metadata hold, then the copy
// through DRAM bandwidth — one kernel synchronization per operation against
// the ramdisk path's three.
func MADBenchMemory(env *sim.Env, dram *mem.Device, cores int, sizePerCore int64) MADBenchResult {
	const allocHold = 2 * time.Microsecond
	allocLock := sim.NewMutex(env)
	var syncCalls int64
	for i := 0; i < cores; i++ {
		env.Go(fmt.Sprintf("madbench-mem-%d", i), func(p *sim.Proc) {
			for off := int64(0); off < sizePerCore; off += MADBenchIOSize {
				n := MADBenchIOSize
				if off+n > sizePerCore {
					n = sizePerCore - off
				}
				allocLock.Lock(p)
				syncCalls++
				p.Sleep(allocHold)
				if err := dram.Reserve(n); err != nil {
					allocLock.Unlock(p)
					panic(err)
				}
				allocLock.Unlock(p)
				dram.WriteBytes(p, n)
			}
		})
	}
	env.Run()
	return MADBenchResult{
		Cores:        cores,
		SizePerCore:  sizePerCore,
		CheckpointT:  env.Now(),
		SyncCalls:    syncCalls,
		LockWait:     allocLock.WaitTime,
		BytesWritten: int64(cores) * sizePerCore,
	}
}
