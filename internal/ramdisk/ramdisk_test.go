package ramdisk

import (
	"errors"
	"testing"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

func newFS(e *sim.Env) (*FS, *mem.Device) {
	dram := mem.NewDRAM(e, 8*mem.GB)
	return New(e, dram), dram
}

func TestWriteGrowsFileUntilClose(t *testing.T) {
	e := sim.NewEnv()
	fs, dram := newFS(e)
	e.Go("w", func(p *sim.Proc) {
		f := fs.Open(p, "ckpt.0")
		if err := f.Write(p, 10*mem.MB); err != nil {
			t.Error(err)
		}
		if f.ino.size != 10*mem.MB {
			t.Errorf("size = %d", f.ino.size)
		}
		f.Close(p)
		if err := f.Write(p, 1); !errors.Is(err, ErrClosed) {
			t.Errorf("write after close err = %v", err)
		}
	})
	e.Run()
	if dram.Used != 10*mem.MB {
		t.Fatalf("DRAM used = %d, want 10MB", dram.Used)
	}
}

func TestWriteChargesKernelPath(t *testing.T) {
	e := sim.NewEnv()
	fs, _ := newFS(e)
	var took time.Duration
	e.Go("w", func(p *sim.Proc) {
		f := fs.Open(p, "x")
		start := p.Now()
		f.Write(p, mem.MB)
		took = p.Now() - start
	})
	e.Run()
	// 1MB + 30% serialization at 8GB/s ≈ 163us, plus 256 pages of kernel
	// work ≈ 43us, plus syscall.
	if took < 150*time.Microsecond || took > 350*time.Microsecond {
		t.Fatalf("1MB write took %v, want ~210us", took)
	}
	if got := fs.KernelSyncCalls; got != 3 {
		t.Fatalf("kernel_sync_calls = %d, want 3 per write", got)
	}
}

func TestOverwriteDoesNotGrow(t *testing.T) {
	e := sim.NewEnv()
	fs, dram := newFS(e)
	e.Go("w", func(p *sim.Proc) {
		f := fs.Open(p, "x")
		f.Write(p, mem.MB)
		f.Seek(p, 0)
		f.Write(p, mem.MB)
		if f.ino.size != mem.MB {
			t.Errorf("size = %d after overwrite", f.ino.size)
		}
	})
	e.Run()
	if dram.Used != mem.MB {
		t.Fatalf("DRAM used = %d, want 1MB", dram.Used)
	}
}

func TestConcurrentWritersContendOnKernelLocks(t *testing.T) {
	e := sim.NewEnv()
	fs, _ := newFS(e)
	const writers = 12
	for i := 0; i < writers; i++ {
		e.Go("w", func(p *sim.Proc) {
			f := fs.Open(p, "ckpt."+string(rune('a'+i)))
			for j := 0; j < 4; j++ {
				if err := f.Write(p, 8*mem.MB); err != nil {
					t.Error(err)
				}
			}
		})
	}
	e.Run()
	if fs.LockWaitTime() <= 0 {
		t.Fatal("12 concurrent writers produced no lock contention")
	}
	wantSync := int64(writers * 4 * 3)
	if got := fs.KernelSyncCalls; got != wantSync {
		t.Fatalf("kernel_sync_calls = %d, want %d", got, wantSync)
	}
}

func TestRamdiskSlowerThanPlainMemcpy(t *testing.T) {
	// The Section IV motivation: same DRAM destination, but the VFS path
	// must be substantially slower than a plain bandwidth-charged copy.
	run := func(useFS bool) time.Duration {
		e := sim.NewEnv()
		fs, dram := newFS(e)
		const n = 12
		for i := 0; i < n; i++ {
			e.Go("w", func(p *sim.Proc) {
				size := 100 * mem.MB
				if useFS {
					f := fs.Open(p, "ckpt."+string(rune('a'+i)))
					// Checkpoints write in bounded-size I/O calls.
					for off := int64(0); off < size; off += 8 * mem.MB {
						if err := f.Write(p, 8*mem.MB); err != nil {
							t.Error(err)
						}
					}
				} else {
					dram.WriteBytes(p, size)
				}
			})
		}
		e.Run()
		return e.Now()
	}
	memT := run(false)
	fsT := run(true)
	if fsT <= memT {
		t.Fatalf("ramdisk (%v) not slower than memory (%v)", fsT, memT)
	}
	slowdown := float64(fsT-memT) / float64(memT)
	if slowdown < 0.2 {
		t.Fatalf("ramdisk slowdown = %.1f%%, want substantial (>20%%)", slowdown*100)
	}
}

func TestOpenExistingKeepsContents(t *testing.T) {
	e := sim.NewEnv()
	fs, _ := newFS(e)
	e.Go("w", func(p *sim.Proc) {
		f := fs.Open(p, "x")
		f.Write(p, mem.MB)
		f.Close(p)
		g := fs.Open(p, "x")
		if g.ino.size != mem.MB {
			t.Errorf("reopened size = %d", g.ino.size)
		}
	})
	e.Run()
}
