// Package nvmcp's top-level benchmarks regenerate every table and figure of
// the paper through the experiment harness and report the headline numbers
// as benchmark metrics, so `go test -bench=. -benchmem` reproduces the
// evaluation end to end. Custom metrics carry the paper-comparable values
// (overheads, reductions, utilizations); wall-clock ns/op only reflects how
// fast the simulation itself runs.
package nvmcp_test

import (
	"testing"

	"nvmcp/internal/experiments"
	"nvmcp/internal/mem"
	"nvmcp/internal/workload"
)

// BenchmarkTable1Devices exercises the Table I device models: a DRAM→NVM
// copy of 256MB under 12-way contention.
func BenchmarkTable1Devices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := workload.MemcpySweep([]int{12}, 256*mem.MB)
		b.ReportMetric(res[0].PerCoreBW/1e6, "MBps-per-core")
	}
}

// BenchmarkMADBench reproduces the Section IV motivation experiment and
// reports the 300MB ramdisk slowdown (paper: ~46%).
func BenchmarkMADBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunMADBench()
		last := rows[len(rows)-1]
		b.ReportMetric(last.Slowdown*100, "%ramdisk-slowdown@300MB")
		b.ReportMetric(last.SyncRatio, "sync-call-ratio")
	}
}

// BenchmarkFig4Memcpy reproduces the parallel-memcpy bandwidth collapse and
// reports the per-core drop at 12 processes for 33MB copies (paper: ~67%).
func BenchmarkFig4Memcpy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4()
		pts := r.Points[33*mem.MB]
		drop := 1 - pts[len(pts)-1].PerCoreBW/pts[0].PerCoreBW
		b.ReportMetric(drop*100, "%per-core-drop@12")
	}
}

// BenchmarkTable4ChunkDistribution recomputes the chunk-size distributions.
func BenchmarkTable4ChunkDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable4()
		b.ReportMetric(rows[1].Over100*100, "%lammps-chunks-over-100MB")
	}
}

// BenchmarkFig7LammpsLocal reproduces the LAMMPS local-checkpoint figure and
// reports the overheads at the most constrained bandwidth point (paper: 15%
// no-pre-copy vs 6.5% pre-copy).
func BenchmarkFig7LammpsLocal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunLocal("fig7", experiments.Quick)
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.NoPreOverhead*100, "%overhead-nopre")
		b.ReportMetric(last.PreOverhead*100, "%overhead-pre")
	}
}

// BenchmarkFig8GTCLocal reproduces the GTC local-checkpoint figure and
// reports the data-volume reduction from dirty tracking (the init-only
// chunks the pre-copy path skips).
func BenchmarkFig8GTCLocal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunLocal("fig8", experiments.Quick)
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.NoPreOverhead*100, "%overhead-nopre")
		b.ReportMetric(last.PreOverhead*100, "%overhead-pre")
		b.ReportMetric((1-last.PreData/last.NoPreData)*100, "%data-reduction")
	}
}

// BenchmarkCM1Local reproduces the in-text CM1 result (small chunks, modest
// pre-copy benefit).
func BenchmarkCM1Local(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunLocal("cm1", experiments.Quick)
		last := r.Points[len(r.Points)-1]
		b.ReportMetric((last.NoPreOverhead-last.PreOverhead)*100, "%benefit")
	}
}

// BenchmarkFig9RemoteEfficiency reproduces the remote-checkpoint efficiency
// experiment and reports the average overheads (paper: 10.6% burst vs 6.2%
// pre-copy, a ~40% reduction).
func BenchmarkFig9RemoteEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(experiments.Quick)
		b.ReportMetric(r.AvgOvhNoPre*100, "%avg-overhead-burst")
		b.ReportMetric(r.AvgOvhPre*100, "%avg-overhead-pre")
		if r.AvgOvhNoPre > 0 {
			b.ReportMetric((1-r.AvgOvhPre/r.AvgOvhNoPre)*100, "%overhead-reduction")
		}
	}
}

// BenchmarkFig10PeakInterconnect reproduces the peak-interconnect-usage
// timeline (paper: pre-copy peak about half the burst peak).
func BenchmarkFig10PeakInterconnect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig10(experiments.Quick)
		b.ReportMetric(r.PeakReduction*100, "%peak-reduction")
	}
}

// BenchmarkTable5HelperCPU reproduces the helper-core utilization table
// (paper: pre-copy roughly doubles it).
func BenchmarkTable5HelperCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable5(experiments.Quick)
		mid := rows[1] // the 472 MB/core row
		b.ReportMetric(mid.UtilNoPre*100, "%util-burst")
		b.ReportMetric(mid.UtilPre*100, "%util-pre")
	}
}

// BenchmarkModelSection3 evaluates the analytic model sweep.
func BenchmarkModelSection3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunModel()
		b.ReportMetric(rows[len(rows)-1].Efficiency, "efficiency@lowest-bw")
	}
}

// BenchmarkAblationPageVsChunk quantifies page- vs chunk-level protection
// (paper: ~3s of fault handling per GB at page granularity).
func BenchmarkAblationPageVsChunk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunPageAblation()
		gb := rows[len(rows)-1]
		b.ReportMetric(gb.PageTime.Seconds(), "s-per-GB-page-level")
		b.ReportMetric(gb.ChunkTime.Seconds()*1000, "ms-per-GB-chunk-level")
	}
}

// BenchmarkAblationDirectNVM quantifies the direct-NVM-heap slowdown the
// shadow buffer avoids (paper, citing Li et al.: up to ~25%).
func BenchmarkAblationDirectNVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunDirectAblation()
		last := rows[len(rows)-1]
		b.ReportMetric(last.DirectSlowdown*100, "%direct-slowdown")
		b.ReportMetric(last.ShadowSlowdown*100, "%shadow-slowdown")
	}
}

// BenchmarkAblationSerialCopy quantifies the dedicated-core serialization
// penalty for small checkpoints.
func BenchmarkAblationSerialCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunSerialAblation()
		b.ReportMetric(rows[0].SerialPenalty*100, "%penalty-small")
		b.ReportMetric(rows[len(rows)-1].SerialPenalty*100, "%penalty-large")
	}
}
