package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// baseParams is a hand-checkable configuration:
// 400 MB checkpoint at 400 MB/s -> t_lcl = 1s; remote at 100 MB/s -> t_rmt = 4s.
func baseParams() Params {
	return Params{
		TCompute:               1000 * time.Second,
		MTBFLocal:              500 * time.Second,
		MTBFRemote:             5000 * time.Second,
		IntervalLocal:          40 * time.Second,
		IntervalRemote:         160 * time.Second,
		CkptSize:               400e6,
		NVMBWPerCore:           400e6,
		RemoteBWPerCore:        100e6,
		RemoteOverheadFraction: 0.05,
	}
}

func TestBasicTerms(t *testing.T) {
	p := baseParams()
	if got := p.LocalCkptTime(); got != time.Second {
		t.Fatalf("t_lcl = %v, want 1s", got)
	}
	if got := p.RemoteCkptTime(); got != 4*time.Second {
		t.Fatalf("t_rmt = %v, want 4s", got)
	}
	if got := p.NLocal(); got != 25 {
		t.Fatalf("N_lcl = %v, want 25", got)
	}
	if got := p.K(); got != 4 {
		t.Fatalf("K = %v, want 4", got)
	}
	if got := p.TLocal(); got != 25*time.Second {
		t.Fatalf("T_lcl = %v, want 25s", got)
	}
	if got := p.ORemote(); got != 50*time.Second {
		t.Fatalf("O_rmt = %v, want 50s", got)
	}
}

func TestLocalRecoveryTerm(t *testing.T) {
	p := baseParams()
	// F_lcl = 1000/500 = 2; per-failure = R_lcl + (I + t_lcl)/2 = 1 + 20.5 = 21.5s.
	if got := p.FLocal(); got != 2 {
		t.Fatalf("F_lcl = %v", got)
	}
	want := 43 * time.Second
	if got := p.TLocalRecovery(); got != want {
		t.Fatalf("local recovery = %v, want %v", got, want)
	}
}

func TestRemoteRecoveryTerm(t *testing.T) {
	p := baseParams()
	// At T_total = 5000s: F_rmt = 1; per-failure = 4 + 4*(41)/2 = 86s.
	got := p.TRemoteRecovery(5000 * time.Second)
	want := 86 * time.Second
	if (got - want).Abs() > time.Millisecond {
		t.Fatalf("remote recovery = %v, want %v", got, want)
	}
}

func TestTTotalFixedPoint(t *testing.T) {
	p := baseParams()
	total := p.TTotal()
	// T_total = base + T_rmtrecovery(T_total);
	// base = 1000 + 25 + 50 + 43 = 1118s. Verify self-consistency.
	base := p.TCompute + p.TLocal() + p.ORemote() + p.TLocalRecovery()
	recomputed := base + p.TRemoteRecovery(total)
	if (recomputed - total).Abs() > 10*time.Millisecond {
		t.Fatalf("fixed point not converged: %v vs %v", total, recomputed)
	}
	if total <= base {
		t.Fatalf("T_total %v should exceed failure-free base %v", total, base)
	}
}

func TestEfficiencyBounds(t *testing.T) {
	p := baseParams()
	eff := p.Efficiency()
	if eff <= 0 || eff >= 1 {
		t.Fatalf("efficiency = %v, want in (0,1)", eff)
	}
	// Fewer failures and cheaper checkpoints -> higher efficiency.
	better := p
	better.MTBFLocal *= 10
	better.MTBFRemote *= 10
	better.NVMBWPerCore *= 4
	better.RemoteOverheadFraction = 0.01
	if better.Efficiency() <= eff {
		t.Fatalf("improved system less efficient: %v <= %v", better.Efficiency(), eff)
	}
}

func TestEfficiencyApproachesOneInIdealLimit(t *testing.T) {
	p := baseParams()
	p.MTBFLocal = 1e6 * time.Second
	p.MTBFRemote = 1e7 * time.Second
	p.NVMBWPerCore = 100e9
	p.RemoteOverheadFraction = 0.001
	if eff := p.Efficiency(); eff < 0.99 {
		t.Fatalf("ideal-limit efficiency = %v, want > 0.99", eff)
	}
}

func TestPreCopyThreshold(t *testing.T) {
	// D = 400MB at 400MB/s: T_c = 1s. I = 40s -> T_p = 39s.
	got := PreCopyThreshold(40*time.Second, 400e6, 400e6)
	if got != 39*time.Second {
		t.Fatalf("T_p = %v, want 39s", got)
	}
	// Interval shorter than drain time: start immediately.
	if got := PreCopyThreshold(time.Second, 400e6, 100e6); got != 0 {
		t.Fatalf("T_p = %v, want 0 when I < T_c", got)
	}
}

func TestOptimalInterval(t *testing.T) {
	// sqrt(2 * 1s * 450s) = 30s.
	got := OptimalInterval(time.Second, 450*time.Second)
	if (got - 30*time.Second).Abs() > 10*time.Millisecond {
		t.Fatalf("I_opt = %v, want 30s", got)
	}
}

// UnrecoverableProbability estimates the probability that a buddy-pair
// remote checkpoint scheme hits an unrecoverable failure — both a node and
// its buddy failing within the same checkpoint interval, before the data
// could be re-replicated. This is the computation behind the Zheng et al.
// result the paper quotes in Section IV: with per-node MTBF of 20 years,
// 5000 nodes, a 6-minute checkpoint interval and 1200 hours of application
// time, the probability is about 0.000977%.
//
// Derivation: a node fails within an interval with probability p ≈ T/MTBF;
// the pair is lost only if the buddy also fails in that same interval and
// *after* the first failure (hence the factor 1/2); with N nodes and
// T_app/T intervals the expected number of pair losses is
// N · p² / 2 · (T_app/T), which for small values is the probability itself.
//
// No part of the simulator needs the estimate, so it lives beside the test
// that holds it to the paper's figure.
func UnrecoverableProbability(mtbfNode time.Duration, nodes int, interval, appTime time.Duration) float64 {
	p := interval.Seconds() / mtbfNode.Seconds()
	intervals := appTime.Seconds() / interval.Seconds()
	return float64(nodes) * p * p / 2 * intervals
}

func TestUnrecoverableProbabilityMatchesZheng(t *testing.T) {
	// The paper (Section IV) quotes Zheng et al.: MTBF 20 years/node, 5000
	// nodes, 6-minute checkpoint interval, 1200 hours of application time
	// -> unrecoverable probability ~0.000977%.
	const year = 365.25 * 24 * time.Hour
	got := UnrecoverableProbability(20*year, 5000, 6*time.Minute, 1200*time.Hour)
	want := 0.000977e-2
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("P = %.6e, want ~%.6e (paper's quoted 0.000977%%)", got, want)
	}
}

func TestUnrecoverableProbabilityScaling(t *testing.T) {
	const year = 365.25 * 24 * time.Hour
	base := UnrecoverableProbability(20*year, 5000, 6*time.Minute, 1200*time.Hour)
	// Doubling the interval doubles per-interval pair risk quadratically
	// but halves the interval count: net 2x.
	double := UnrecoverableProbability(20*year, 5000, 12*time.Minute, 1200*time.Hour)
	if math.Abs(double/base-2) > 1e-9 {
		t.Fatalf("interval doubling scaled by %v, want 2", double/base)
	}
	// Twice the nodes, twice the risk.
	moreNodes := UnrecoverableProbability(20*year, 10000, 6*time.Minute, 1200*time.Hour)
	if math.Abs(moreNodes/base-2) > 1e-9 {
		t.Fatalf("node doubling scaled by %v, want 2", moreNodes/base)
	}
}

func TestEfficiencyMonotoneInLocalBandwidthProperty(t *testing.T) {
	f := func(bwScale uint8) bool {
		p := baseParams()
		lo := p
		lo.NVMBWPerCore = 100e6 + float64(bwScale)*1e6
		hi := lo
		hi.NVMBWPerCore *= 2
		return hi.Efficiency() >= lo.Efficiency()-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPreCopyThresholdNeverNegativeProperty(t *testing.T) {
	f := func(iMillis uint16, sizeMB uint16, bwMBs uint16) bool {
		i := time.Duration(iMillis) * time.Millisecond
		size := int64(sizeMB) * 1e6
		bw := float64(bwMBs)*1e6 + 1
		tp := PreCopyThreshold(i, size, bw)
		return tp >= 0 && tp <= i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
