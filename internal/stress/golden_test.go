package stress

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nvmcp/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden report artifacts")

// TestGoldenReport pins the stress report pair of the synthetic multi-size
// report: the survivability table, the MTTR and availability curves over
// fleet size, and the cell table. Rendering is deterministic, so a diff
// means the report format changed — re-run with
// `go test ./internal/stress -run Golden -update` only when that is meant.
func TestGoldenReport(t *testing.T) {
	rep := sampleReport()
	var js, page bytes.Buffer
	if err := report.WriteJSON(&js, "stress", rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteHTML(&page, rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "sample.golden.json"), js.Bytes())
	checkGolden(t, filepath.Join("testdata", "sample.golden.html"), page.Bytes())
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d vs %d bytes) — if the change is intentional, re-run with -update",
			path, len(got), len(want))
	}
}
