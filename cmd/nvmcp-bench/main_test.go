package main

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nvmcp/internal/experiments"
	"nvmcp/internal/introspect"
)

// TestUsageNamesEveryRunner keeps -help in step with the experiment table:
// each experiment id must head a line of the experiment list.
func TestUsageNamesEveryRunner(t *testing.T) {
	var sb strings.Builder
	writeUsage(&sb)
	out := sb.String()
	for _, e := range experiments.All {
		if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(e.ID) + `\s`).MatchString(out) {
			t.Errorf("usage does not list experiment %q:\n%s", e.ID, out)
		}
	}
}

// TestProfileFlags holds -cpuprofile and -memprofile to their promise: each
// writes a non-empty gzip-compressed pprof profile of the experiment runs,
// and the heap profile is sampled at introspect.HeapProfileRate.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "nvmcp-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if out, err := exec.Command(bin, "-cpuprofile", cpu, "-memprofile", mem, "tab1").CombinedOutput(); err != nil {
		t.Fatalf("profiled run failed: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s is not gzip: %v", filepath.Base(path), err)
		}
		body, err := io.ReadAll(zr)
		f.Close()
		if err != nil || len(body) == 0 {
			t.Fatalf("%s: %d bytes after gunzip, err %v", filepath.Base(path), len(body), err)
		}
	}
	out, err := exec.Command("go", "tool", "pprof", "-raw", mem).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("Period: %d\n", introspect.HeapProfileRate); !strings.Contains(string(out), want) {
		t.Errorf("heap profile does not record %q:\n%.300s", want, out)
	}
}
