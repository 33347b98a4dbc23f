package experiments

import (
	"fmt"
	"io"

	"nvmcp/internal/mem"
	"nvmcp/internal/report"
	"nvmcp/internal/workload"
)

// Fig4Result holds the parallel-memcpy bandwidth sweep: per-core copy
// bandwidth vs concurrent process count, for several copy sizes.
type Fig4Result struct {
	Sizes  []int64
	Procs  []int
	Points map[int64][]workload.MemcpyResult // keyed by size
}

// RunFig4 reproduces Figure 4 (LANL parallel memcpy): effective per-core
// DRAM copy bandwidth collapsing as process count rises, for 1/33/512 MB
// copies. The DRAM model is calibrated so 12 processes retain ~33% of
// single-process bandwidth at the 33 MB point.
func RunFig4() Fig4Result {
	sizes := []int64{1 * mem.MB, 33 * mem.MB, 512 * mem.MB}
	procs := []int{1, 2, 4, 6, 8, 10, 12}
	out := Fig4Result{Sizes: sizes, Procs: procs, Points: make(map[int64][]workload.MemcpyResult)}
	for _, size := range sizes {
		out.Points[size] = workload.MemcpySweep(procs, size)
	}
	return out
}

// PrintFig4 renders the sweep.
func PrintFig4(w io.Writer, r Fig4Result) {
	fmt.Fprintln(w, "== Parallel memcpy bandwidth per core (LANL benchmark, Figure 4) ==")
	header := []string{"procs"}
	for _, s := range r.Sizes {
		header = append(header, report.FmtBytes(float64(s)))
	}
	tb := &report.Table{Header: header}
	for i, n := range r.Procs {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range r.Sizes {
			row = append(row, report.FmtRate(r.Points[s][i].PerCoreBW))
		}
		tb.AddRow(row...)
	}
	tb.Write(w)
	for _, s := range r.Sizes {
		pts := r.Points[s]
		drop := 1 - pts[len(pts)-1].PerCoreBW/pts[0].PerCoreBW
		fmt.Fprintf(w, "per-core drop at 12 procs (%s): %s (paper: ~67%% at 33 MB)\n",
			report.FmtBytes(float64(s)), report.FmtPctFixed(drop))
	}
}
