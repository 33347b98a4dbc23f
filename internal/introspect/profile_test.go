package introspect

import (
	"path/filepath"
	"runtime"
	"testing"
)

// A heap profile samples at HeapProfileRate from StartProfiles to Stop, and
// Stop puts the previous rate back; without one the rate is left alone.
func TestProfilesHeapRate(t *testing.T) {
	before := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = before }()
	p, err := StartProfiles("", filepath.Join(t.TempDir(), "mem.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if runtime.MemProfileRate != HeapProfileRate {
		t.Errorf("rate while profiling = %d, want %d", runtime.MemProfileRate, HeapProfileRate)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if runtime.MemProfileRate != before {
		t.Errorf("rate after Stop = %d, want the previous %d", runtime.MemProfileRate, before)
	}
	p, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if runtime.MemProfileRate != before {
		t.Errorf("rate without a heap profile = %d, want %d", runtime.MemProfileRate, before)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}
