package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"app", "time"}}
	tb.AddRow("gtc", "1.5s")
	tb.AddRow("lammps-long", "2s")
	var sb strings.Builder
	tb.Write(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "app") || !strings.Contains(lines[0], "time") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.Contains(lines[3], "lammps-long") {
		t.Fatalf("bad row: %q", lines[3])
	}
}

// TestTableRowWiderThanHeader pins that a row with more cells than the
// header renders its extra cells instead of indexing past the widths.
func TestTableRowWiderThanHeader(t *testing.T) {
	tb := &Table{Header: []string{"k"}}
	tb.AddRow("a", "extra")
	tb.AddRow("long-key", "x", "more")
	var sb strings.Builder
	tb.Write(&sb)
	want := "k\n" +
		"--------\n" +
		"a         extra\n" +
		"long-key  x      more\n"
	if got := sb.String(); got != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", got, want)
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{1023, "1023 B"},
		{1024, "1.0 KiB"},
		{2048, "2.0 KiB"},
		{3 << 20, "3.0 MiB"},
		{1536 << 10, "1.5 MiB"},
		{float64(5) * (1 << 30), "5.00 GiB"},
		{2560 << 20, "2.50 GiB"},
	}
	for _, c := range cases {
		if got := FmtBytes(c.in); got != c.want {
			t.Fatalf("FmtBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := FmtRate(2048); got != "2.0 KiB/s" {
		t.Fatalf("FmtRate = %q", got)
	}
	if got := FmtRate(float64(3) * (1 << 30)); got != "3.00 GiB/s" {
		t.Fatalf("FmtRate = %q", got)
	}
	if got := FmtPctFixed(0.462); got != "46.2%" {
		t.Fatalf("FmtPctFixed = %q", got)
	}
	if got, trimmed := FmtPctFixed(0.5), FmtPct(0.5); got != "50.0%" || trimmed != "50%" {
		t.Fatalf("FmtPctFixed(0.5) = %q, FmtPct(0.5) = %q; want 50.0%% and 50%%", got, trimmed)
	}
}
