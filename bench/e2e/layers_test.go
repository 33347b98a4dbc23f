package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOfInnermostListedFrame(t *testing.T) {
	cases := []struct {
		name   string
		frames []string
		want   string
	}{
		{"scheduler only", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, "runtime"},
		{"gc worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, "gc"},
		{"background sweep", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"mixed: runtime under obs under core", []string{
			"runtime.mapaccess2_faststr", "nvmcp/internal/obs.(*Registry).counterCanon",
			"nvmcp/internal/obs.(*Recorder).Add", "nvmcp/internal/core.(*Store).count",
			"nvmcp/internal/cluster.(*Cluster).rankBody.func1",
		}, "obs"},
		{"gc assist inside the engine", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject",
			"nvmcp/internal/sim.(*Env).Schedule",
		}, "sim"},
		{"unlisted package folds into its caller", []string{
			"nvmcp/internal/stats.(*Histogram).Add", "nvmcp/internal/obs.(*Histogram).Observe",
		}, "obs"},
		{"closure and generic names", []string{
			"nvmcp/internal/remote.(*Agent).run.func1", "nvmcp/internal/policy.Parse[...]",
		}, "remote"},
		{"harness frames only", []string{"main.refKernel", "main.main"}, "runtime"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// spin burns CPU in a function the decoded profile must name.
func spin(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestDecodeProfileFindsSampledFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.count
				break
			}
		}
	}
	if total == 0 || inSpin == 0 {
		t.Fatalf("decoded %d samples, %d under spin; want both > 0", total, inSpin)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("decodeProfile accepted garbage")
	}
}
