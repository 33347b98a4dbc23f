package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestRestartPathsOrdering(t *testing.T) {
	rows := quick[[]RestartRow]("restart")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Lazy resume is near-instant; eager scales with size; remote is
		// the slowest full-recovery path (link slower than local NVM read).
		if r.LazyResume > time.Millisecond {
			t.Errorf("%d: lazy resume = %v, want ~0", r.CkptSize, r.LazyResume)
		}
		if r.EagerLocal <= r.LazyResume {
			t.Errorf("%d: eager (%v) not above lazy resume (%v)", r.CkptSize, r.EagerLocal, r.LazyResume)
		}
		if r.RemoteFetch <= r.EagerLocal {
			t.Errorf("%d: remote fetch (%v) not above eager local (%v)", r.CkptSize, r.RemoteFetch, r.EagerLocal)
		}
		// Lazy restore never loses to eager across resume+first iteration:
		// GTC's per-iteration arrays are fully overwritten and skip their
		// copies entirely.
		if r.LazyFirstIter > r.EagerFirstIter {
			t.Errorf("%d: lazy+iter (%v) worse than eager+iter (%v)",
				r.CkptSize, r.LazyFirstIter, r.EagerFirstIter)
		}
	}
	// Eager restart time grows with checkpoint size.
	for i := 1; i < len(rows); i++ {
		if rows[i].EagerLocal <= rows[i-1].EagerLocal {
			t.Fatal("eager restart did not grow with checkpoint size")
		}
	}
}

func TestTransparentComparisonShape(t *testing.T) {
	r := quick[TransparentRow]("transparent")
	// Within scaling round-off of the live state.
	if diff := r.AppBytes - r.CkptState; diff < -1024 || diff > 1024 {
		t.Fatalf("app-initiated moved %d, want ~the live state %d", r.AppBytes, r.CkptState)
	}
	if r.FullBytes != r.Footprint {
		t.Fatalf("transparent full moved %d, want the footprint %d", r.FullBytes, r.Footprint)
	}
	if r.IncrBytes != r.Footprint/2 {
		t.Fatalf("incremental moved %d, want the dirtied half %d", r.IncrBytes, r.Footprint/2)
	}
	if !(r.AppT < r.IncrT && r.IncrT < r.FullT) {
		t.Fatalf("ordering app(%v) < incr(%v) < full(%v) violated", r.AppT, r.IncrT, r.FullT)
	}
	if r.IncrFaults != r.Footprint/2/4096 {
		t.Fatalf("incremental faults = %d, want one per dirtied page", r.IncrFaults)
	}
}

func TestFailureModelShape(t *testing.T) {
	rows := quick[[]FailureRow]("failures")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SimEff < rows[i-1].SimEff {
			t.Fatal("simulated efficiency fell as MTBF grew")
		}
		if rows[i].ModelEff < rows[i-1].ModelEff {
			t.Fatal("model efficiency fell as MTBF grew")
		}
	}
	// With failures hitting, recovery restores must be recorded.
	for _, r := range rows {
		if r.Failures > 0 && r.LocalRestore == 0 {
			t.Fatalf("MTBF %v: %d failures but no restores", r.MTBF, r.Failures)
		}
		if r.SimEff <= 0 || r.SimEff > 1 {
			t.Fatalf("sim efficiency out of range: %v", r.SimEff)
		}
	}
}

func TestEnduranceEagerSchemeWearsFaster(t *testing.T) {
	rows := quick[[]EnduranceRow]("endurance")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]EnduranceRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.LifetimeYears <= 0 || r.WriteRate <= 0 || r.EnergyPerHour <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
	cpc := byName["CPC (eager)"]
	dcpcp := byName["DCPCP (delayed+prediction)"]
	if cpc.WriteRate <= dcpcp.WriteRate*1.2 {
		t.Fatalf("CPC write rate %v not clearly above DCPCP %v", cpc.WriteRate, dcpcp.WriteRate)
	}
	if cpc.LifetimeYears >= dcpcp.LifetimeYears {
		t.Fatalf("CPC lifetime %v not below DCPCP %v", cpc.LifetimeYears, dcpcp.LifetimeYears)
	}
	if cpc.EnergyPerHour <= dcpcp.EnergyPerHour {
		t.Fatal("CPC energy not above DCPCP")
	}
}

func TestIntervalUCurve(t *testing.T) {
	r := quick[IntervalResult]("interval")
	if len(r.Rows) < 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	best, worstLong := r.Rows[0], r.Rows[len(r.Rows)-1]
	for _, row := range r.Rows {
		if row.ExecTime < best.ExecTime {
			best = row
		}
	}
	// The minimum must be interior or at least not the longest interval,
	// and the longest interval must be clearly worse (recomputation loss).
	if best.Interval == worstLong.Interval {
		t.Fatal("longest interval came out best; no recomputation penalty visible")
	}
	if worstLong.ExecTime < best.ExecTime*2 {
		t.Fatalf("longest interval (%v) not clearly worse than best (%v)",
			worstLong.ExecTime, best.ExecTime)
	}
	// Young's optimum lands within a factor of ~2 of the measured best.
	ratio := float64(r.Best) / float64(r.YoungOpt)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("measured best %v vs Young %v: ratio %.2f out of range", r.Best, r.YoungOpt, ratio)
	}
	// Shortest interval pays more checkpoint overhead than the best.
	if r.Rows[0].ExecTime <= best.ExecTime && r.Rows[0].Interval != best.Interval {
		t.Fatal("over-frequent checkpointing showed no cost")
	}
}

func TestRedundancyTradeoff(t *testing.T) {
	r := quick[RedundancyResult]("redundancy")
	// Parity holds a fraction of buddy's remote memory...
	if r.ParityFootprint*2 >= r.BuddyFootprint {
		t.Fatalf("parity footprint %d not clearly below buddy %d", r.ParityFootprint, r.BuddyFootprint)
	}
	// ...but recovery costs more.
	if r.ParityRecover <= r.BuddyRecover {
		t.Fatalf("parity recovery %v not above buddy %v", r.ParityRecover, r.BuddyRecover)
	}
	// Steady-state shipping volume is comparable (each node sends its D).
	ratio := float64(r.ParityShip) / float64(r.BuddyShip)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("ship ratio = %.2f, want ~1", ratio)
	}
}

func TestHierarchyMultilevelBeatsPFSDirect(t *testing.T) {
	r := quick[HierarchyResult]("hierarchy")
	if r.MultiOvh >= r.PFSDirectOvh/3 {
		t.Fatalf("multilevel overhead %.3f not clearly below PFS-direct %.3f",
			r.MultiOvh, r.PFSDirectOvh)
	}
	// The durability ladder widens outward: local blocking < remote async
	// window, and the PFS drain moved every committed object.
	if r.LocalLatency >= r.RemoteLatency {
		t.Fatalf("local latency %v not below remote window %v", r.LocalLatency, r.RemoteLatency)
	}
	if r.PFSObjects == 0 {
		t.Fatal("nothing drained to the PFS")
	}
}

func TestNewExperimentPrinters(t *testing.T) {
	var sb strings.Builder
	PrintRestart(&sb, quick[[]RestartRow]("restart"))
	PrintTransparent(&sb, quick[TransparentRow]("transparent"))
	PrintFailureModel(&sb, quick[[]FailureRow]("failures"))
	PrintEndurance(&sb, quick[[]EnduranceRow]("endurance"))
	PrintInterval(&sb, quick[IntervalResult]("interval"))
	out := sb.String()
	for _, want := range []string{"Restart paths", "Transparent vs", "Failure injection", "endurance", "Checkpoint interval"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q", want)
		}
	}
}
