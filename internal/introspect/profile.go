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
}

// StartProfiles starts CPU profiling into cpuPath and arranges for Stop to
// write a heap profile to memPath. An empty path skips that profile.
func StartProfiles(cpuPath, memPath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath == "" {
		return p, nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p.cpu = f
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
	}
	runtime.KeepAlive(keep)
	return errors.Join(errs...)
}
