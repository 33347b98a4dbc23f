package experiments

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmcp/internal/scenario"
)

func TestFig4ShapeAndCalibration(t *testing.T) {
	r := quick[Fig4Result]("fig4")
	pts := r.Points[33<<20]
	if pts[0].Procs != 1 || pts[len(pts)-1].Procs != 12 {
		t.Fatalf("proc axis wrong: %+v", pts)
	}
	drop := 1 - pts[len(pts)-1].PerCoreBW/pts[0].PerCoreBW
	if drop < 0.6 || drop > 0.75 {
		t.Fatalf("33MB per-core drop = %.2f, want ~0.67", drop)
	}
	// Larger copies contend at least as hard as smaller ones.
	small := r.Points[1<<20]
	large := r.Points[512<<20]
	if large[len(large)-1].PerCoreBW > small[len(small)-1].PerCoreBW+1 {
		t.Fatal("512MB copies outperform 1MB copies at 12 procs")
	}
}

func TestMADBenchHeadline(t *testing.T) {
	rows := quick[[]MADBenchRow]("madbench")
	last := rows[len(rows)-1]
	if last.SizePerCore != 300<<20 {
		t.Fatalf("last row size = %d", last.SizePerCore)
	}
	// Paper: ~46% slower at 300MB/core; accept the right neighbourhood.
	if last.Slowdown < 0.3 || last.Slowdown > 0.65 {
		t.Fatalf("300MB ramdisk slowdown = %.2f, want ~0.46", last.Slowdown)
	}
	if last.SyncRatio < 2.5 {
		t.Fatalf("sync ratio = %.1f, want ~3x", last.SyncRatio)
	}
	if last.LockWaitRamdisk <= last.LockWaitMemory {
		t.Fatal("ramdisk lock wait not above memory path")
	}
}

func TestLocalExperimentShape(t *testing.T) {
	r := quick[LocalResult]("fig7")
	if len(r.Points) != len(BWSweepPerCore) {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, pt := range r.Points {
		// Pre-copy must beat no-pre-copy and ramdisk everywhere.
		if pt.PreExec > pt.NoPreExec {
			t.Fatalf("at %v BW: pre-copy exec %v worse than no-pre %v",
				pt.BWPerCore, pt.PreExec, pt.NoPreExec)
		}
		if pt.PreExec > pt.RamdiskExec {
			t.Fatalf("at %v BW: pre-copy exec %v worse than ramdisk %v",
				pt.BWPerCore, pt.PreExec, pt.RamdiskExec)
		}
		if pt.PreOverhead > pt.NoPreOverhead {
			t.Fatal("pre-copy overhead above baseline")
		}
		if pt.IdealExec >= pt.PreExec {
			t.Fatal("ideal not fastest")
		}
	}
	// The gap must widen as bandwidth shrinks (contention is the enemy).
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if (last.NoPreOverhead - last.PreOverhead) < (first.NoPreOverhead - first.PreOverhead) {
		t.Fatal("pre-copy benefit did not grow as NVM bandwidth fell")
	}
}

func TestLocalGTCCopiesLessDataWithTracking(t *testing.T) {
	r := quick[LocalResult]("fig8")
	for _, pt := range r.Points {
		// GTC's init-only chunk: dirty tracking copies strictly less data.
		if pt.PreData >= pt.NoPreData {
			t.Fatalf("pre-copy data %v not below baseline %v (init-only chunk should be skipped)",
				pt.PreData, pt.NoPreData)
		}
	}
}

func TestCM1BenefitsLessThanLAMMPS(t *testing.T) {
	lammps := quick[LocalResult]("fig7")
	cm1 := quick[LocalResult]("cm1")
	// Compare the benefit at the most constrained bandwidth point.
	lb := lammps.Points[len(lammps.Points)-1]
	cb := cm1.Points[len(cm1.Points)-1]
	lBenefit := lb.NoPreOverhead - lb.PreOverhead
	cBenefit := cb.NoPreOverhead - cb.PreOverhead
	// The fluid bandwidth model equalizes small- and large-chunk contention,
	// so CM1's suppression is weaker here than the paper's (<5% benefit);
	// the reproducible property is that CM1 never benefits *more* than
	// LAMMPS (see EXPERIMENTS.md for the divergence note).
	if cBenefit > lBenefit+0.02 {
		t.Fatalf("CM1 benefit (%.3f) clearly exceeds LAMMPS benefit (%.3f); paper says CM1 <5%%",
			cBenefit, lBenefit)
	}
}

func TestFig9PreCopyBeatsBurst(t *testing.T) {
	r := quick[Fig9Result]("fig9")
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, pt := range r.Points {
		// Individual corner points may invert slightly at quick scale
		// (shrunken data volumes compress the shipping window); the
		// paper-comparable claim is the average reduction below.
		if pt.EffPre < pt.EffNoPre-0.015 {
			t.Fatalf("pre-copy efficiency %.3f clearly below burst %.3f at K=%d BW=%v",
				pt.EffPre, pt.EffNoPre, pt.RemoteEvery, pt.BWPerCore)
		}
		if pt.EffPre <= 0 || pt.EffPre > 1 {
			t.Fatalf("efficiency out of range: %v", pt.EffPre)
		}
	}
	if r.AvgOvhPre >= r.AvgOvhNoPre*0.8 {
		t.Fatalf("average overhead: pre %.3f not clearly below burst %.3f (paper: ~40%% reduction)",
			r.AvgOvhPre, r.AvgOvhNoPre)
	}
}

func TestFig10PeakReduction(t *testing.T) {
	r := quick[Fig10Result]("fig10")
	if r.BurstPeak <= 0 || r.PrePeak <= 0 {
		t.Fatalf("degenerate peaks: %+v", r)
	}
	// Paper: pre-copy peak is roughly half the burst peak.
	if r.PeakReduction < 0.25 {
		t.Fatalf("peak reduction = %.2f, want substantial (~0.5)", r.PeakReduction)
	}
}

func TestTable4RowsCoverAllApps(t *testing.T) {
	rows := RunTable4()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := r.SubMB + r.Mid10to20 + r.Mid50to100 + r.Over100
		if sum <= 0 || sum > 1.0001 {
			t.Fatalf("%s bucket shares sum to %v", r.App, sum)
		}
	}
}

func TestTable5PreCopyRoughlyDoublesHelperUtil(t *testing.T) {
	rows := quick[[]Table5Row]("tab5")
	for _, r := range rows {
		if r.UtilPre <= r.UtilNoPre {
			t.Fatalf("at %d: pre-copy util %.3f not above burst %.3f",
				r.DataPerCore, r.UtilPre, r.UtilNoPre)
		}
		if r.UtilPre > 0.8 {
			t.Fatalf("helper util %.3f implausibly high", r.UtilPre)
		}
	}
	// Utilization grows with data volume.
	if rows[len(rows)-1].UtilNoPre < rows[0].UtilNoPre {
		t.Fatal("burst util shrank with more data")
	}
}

func TestPageAblationScalesPerGB(t *testing.T) {
	rows := quick[[]PageAblationRow]("ablation-page")
	for _, r := range rows {
		if r.PageTime <= r.ChunkTime {
			t.Fatalf("page-level (%v) not costlier than chunk-level (%v)", r.PageTime, r.ChunkTime)
		}
	}
	// ~1GB at 9us+1us(protect) per 4KB page: in the seconds range.
	gb := rows[len(rows)-1]
	if gb.PageTime < time.Second || gb.PageTime > 10*time.Second {
		t.Fatalf("1GB page-level cost = %v, want seconds (paper: ~3s/GB)", gb.PageTime)
	}
}

func TestDirectAblationWriteIntensityHurts(t *testing.T) {
	rows := quick[[]DirectAblationRow]("ablation-direct")
	for i := 1; i < len(rows); i++ {
		if rows[i].DirectSlowdown < rows[i-1].DirectSlowdown-0.01 {
			t.Fatal("direct-NVM slowdown did not grow with write intensity")
		}
	}
	last := rows[len(rows)-1]
	if last.DirectSlowdown < 0.1 {
		t.Fatalf("write-intensive direct slowdown = %.2f, want >= 10%% (paper: up to 25%%)", last.DirectSlowdown)
	}
	if last.ShadowSlowdown >= last.DirectSlowdown {
		t.Fatal("shadow buffering not better than direct NVM for write-intensive code")
	}
}

func TestSerialAblationPenaltyShrinksWithSize(t *testing.T) {
	rows := quick[[]SerialAblationRow]("ablation-serial")
	if rows[0].SerialPenalty <= rows[len(rows)-1].SerialPenalty {
		t.Fatal("serialization penalty did not shrink with per-core data size")
	}
	if rows[0].SerialPenalty < 0.05 {
		t.Fatalf("small-data serialization penalty = %.3f, want noticeable", rows[0].SerialPenalty)
	}
}

func TestModelRowsMonotone(t *testing.T) {
	rows := quick[[]ModelRow]("model")
	for i := 1; i < len(rows); i++ {
		if rows[i].TLocal < rows[i-1].TLocal {
			t.Fatal("T_lcl shrank as bandwidth fell")
		}
		if rows[i].Efficiency > rows[i-1].Efficiency {
			t.Fatal("efficiency rose as bandwidth fell")
		}
		if rows[i].PreCopyTp > rows[i-1].PreCopyTp {
			t.Fatal("pre-copy threshold rose as bandwidth fell")
		}
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var sb strings.Builder
	PrintTable1(&sb)
	PrintTable4(&sb, quick[[]Table4Row]("tab4"))
	PrintModel(&sb, quick[[]ModelRow]("model"))
	PrintFig4(&sb, quick[Fig4Result]("fig4"))
	PrintMADBench(&sb, quick[[]MADBenchRow]("madbench"))
	out := sb.String()
	for _, want := range []string{"Table I", "Table IV", "analytic model", "memcpy", "MADBench"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q", want)
		}
	}
	if len(out) < 1000 {
		t.Fatalf("printer output suspiciously short: %d bytes", len(out))
	}
}

func TestSweepBoundsConcurrency(t *testing.T) {
	old := sweepWorkers
	defer func() { sweepWorkers = old }()
	sweepWorkers = 4

	var active, peak atomic.Int64
	var mu sync.Mutex
	seen := make(map[int]bool)
	sweep(1000, func(i int) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched() // give other workers a chance to overlap
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		active.Add(-1)
	})
	if p := peak.Load(); p > 4 {
		t.Fatalf("sweep ran %d points at once, bound is 4", p)
	}
	if len(seen) != 1000 {
		t.Fatalf("sweep visited %d distinct points, want 1000", len(seen))
	}
}

// TestRunnersArePresets holds bench and sim to one namespace: every table id
// is a preset id, so -list, DESIGN.md ids and `all` ordering resolve it.
func TestRunnersArePresets(t *testing.T) {
	for _, e := range All {
		if _, ok := scenario.PresetByID(e.ID); !ok {
			t.Errorf("experiment %q has no preset", e.ID)
		}
	}
}

// TestBenchOnlyPresetsHaveRunners backs scenario.BuildPreset's advice for a
// bench-only preset ("run it with `nvmcp-bench <id>`"): that command must
// exist.
func TestBenchOnlyPresetsHaveRunners(t *testing.T) {
	for _, p := range scenario.Presets() {
		if p.ClusterShaped() {
			continue
		}
		if _, ok := Lookup(p.ID); !ok {
			t.Errorf("bench-only preset %q has no nvmcp-bench runner", p.ID)
		}
	}
}

// TestAllFollowsPresetOrder keeps `nvmcp-bench all` in DESIGN.md §4 order:
// the table lists its ids in the preset table's order, each once.
func TestAllFollowsPresetOrder(t *testing.T) {
	var got, want []string
	for _, e := range All {
		got = append(got, e.ID)
	}
	for _, p := range scenario.Presets() {
		if _, ok := Lookup(p.ID); ok {
			want = append(want, p.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("All order\n got: %v\nwant: %v", got, want)
	}
}

// TestValidateBuildsNoProfile: validating a 1,000-node fleet scenario checks
// its workload name against the profile list and builds nothing, so it makes
// no allocation at all. The heap is collected first so a GC cycle's own
// start-up allocations fall outside the measured calls.
func TestValidateBuildsNoProfile(t *testing.T) {
	sc := FleetChaosScenario(1000, Paper, "spread", "zone")
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if n := testing.AllocsPerRun(100, func() { _ = sc.Validate() }); n != 0 {
		t.Errorf("Scenario.Validate: %.0f allocations per call, want 0", n)
	}
}
