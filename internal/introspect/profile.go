package introspect

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"nvmcp/internal/report"
)

// Profiles writes a run's host profiles to files: the CPU profile from
// StartProfiles to Stop, and the heap profile at Stop. It is the offline
// twin of the -http pprof handlers, for runs too short to catch in flight.
type Profiles struct {
	cpu     *os.File
	memPath string
	memRate int // runtime.MemProfileRate before StartProfiles
}

// HeapProfileRate is the heap sampling rate, one sample per this many bytes
// allocated, while a heap profile is being taken. At the runtime's default
// of 512 KiB a retained row moves by about 1 MB between runs, more than one
// layer's per-chunk state in a paper-scale fleet run; at 4 KiB such a row
// holds still.
const HeapProfileRate = 4 << 10

// StartProfiles starts CPU profiling into cpuPath and arranges for Stop to
// write a heap profile to memPath. An empty path skips that profile. With a
// heap profile asked for, allocations from here on are sampled at
// HeapProfileRate until Stop restores the previous rate.
func StartProfiles(cpuPath, memPath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		p.cpu = f
	}
	if memPath != "" {
		p.memRate = runtime.MemProfileRate
		runtime.MemProfileRate = HeapProfileRate
	}
	return p, nil
}

// Stop ends the CPU profile and writes the heap profile after a collection,
// so its inuse_space is what the program retains at this point. Pass the
// run's results (the finished cluster): they stay reachable until the heap
// profile is written.
func (p *Profiles) Stop(keep ...any) error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cpu profile: %w", err))
		}
	}
	if p.memPath != "" {
		runtime.GC()
		err := report.WriteFile(p.memPath, func(w io.Writer) error {
			return pprof.Lookup("heap").WriteTo(w, 0)
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("heap profile: %w", err))
		}
		runtime.MemProfileRate = p.memRate
	}
	runtime.KeepAlive(keep)
	return errors.Join(errs...)
}
