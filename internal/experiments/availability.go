package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/model"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
)

// ---------------------------------------------------------------------------
// Availability: measured MTTR per recovery tier vs the §III restart model.

// AvailabilityRow is one faulted run whose recovery is dominated by a tier.
type AvailabilityRow struct {
	// Path names the dominant recovery tier of the injected fault class.
	Path string
	// Kind is the injected fault schedule, in taxonomy terms.
	Kind string
	// MTTR is the measured failure→all-ranks-recovered repair time.
	MTTR time.Duration
	// ModelMTTR is the §III prediction: the relaunch delay plus the
	// matching restart term (R_lcl for soft failures, R_rmt when the data
	// must cross the fabric).
	ModelMTTR time.Duration
	// Recovered* split the post-failure chunk recoveries by source tier.
	RecoveredLocal  int64
	RecoveredRemote int64
	RecoveredBottom int64
	// Degraded is total time in degraded mode (repair plus link outages).
	Degraded time.Duration
}

// availabilityBase is the CM1 configuration shared by every availability
// run: the same shape as the "faults" preset, minus the fault schedule.
func availabilityBase(scale Scale) *scenario.Scenario {
	sc := scenario.Base("cm1", scale.Scenario(), 400e6)
	sc.Name = "availability"
	sc.LinkBW = 250e6
	if scale == Paper {
		sc.LinkBW = 1e9
	}
	sc.Workload.CommMB = -1
	sc.Workload.IterSecs = 3
	sc.Iterations = 6
	sc.Local = scenario.LocalSpec{Policy: "dcpcp"}
	sc.Remote = scenario.RemoteSpec{Policy: "buddy-precopy", AutoRateCap: true, Every: 2}
	sc.Bottom = scenario.BottomSpec{Policy: "pfs-drain"}
	return sc
}

// AvailabilityScenario is one availability run's declarative shape: a fully
// built scenario plus the fault class injected and the recovery tier expected
// to dominate it. Exported so invariant checks can replay the exact runs the
// experiment reports on.
type AvailabilityScenario struct {
	// Path names the dominant recovery tier of the injected fault class.
	Path string
	// Kind is the injected fault schedule, in taxonomy terms.
	Kind string
	// Scenario is the runnable configuration (availabilityBase plus the
	// fault schedule).
	Scenario *scenario.Scenario
}

// AvailabilityScenarios builds the experiment's three faulted runs — soft
// (local restore), hard (remote fetch), and NVM corruption compounded by
// buddy loss (PFS fetch for the damaged chunks). The faults land
// mid-interval after the second remote checkpoint commits, mirroring the
// "faults" preset timing.
func AvailabilityScenarios(scale Scale) []AvailabilityScenario {
	runs := []AvailabilityScenario{
		{Path: "local", Kind: "soft"},
		{Path: "remote", Kind: "hard"},
		{Path: "bottom", Kind: "nvm-corrupt + buddy-loss"},
	}
	failures := [][]scenario.FailureSpec{
		{{AtSecs: 10.5, Node: 1, Kind: "soft"}},
		{{AtSecs: 10.5, Node: 1, Kind: "hard"}},
		{
			{AtSecs: 10.5, Node: 1, Kind: "nvm-corrupt", Chunks: 4},
			{AtSecs: 10.8, Node: 1, Kind: "buddy-loss"},
		},
	}
	for i := range runs {
		sc := availabilityBase(scale)
		sc.Failures = failures[i]
		sc.FaultSeed = 7
		runs[i].Scenario = sc
	}
	return runs
}

// RunAvailability executes the availability scenarios and compares each
// measured MTTR against the Section III restart terms.
func RunAvailability(scale Scale) []AvailabilityRow {
	runs := AvailabilityScenarios(scale)
	rows := make([]AvailabilityRow, len(runs))
	sweep(len(runs), func(i int) {
		sc := runs[i].Scenario
		res, _, err := cluster.RunScenario(sc)
		if err != nil {
			panic(err)
		}
		app, err := sc.AppSpec()
		if err != nil {
			panic(err)
		}
		p := model.Params{
			CkptSize:        app.CheckpointSize(),
			NVMBWPerCore:    sc.NVMPerCoreBW,
			RemoteBWPerCore: sc.LinkBW / float64(sc.CoresPerNode),
		}
		// Soft failures restore every rank from local NVM in parallel at
		// per-core bandwidth; anything harder is dominated by the failed
		// node's ranks pulling their chunks across the shared link (the few
		// PFS-recovered chunks ride inside that window).
		predicted := cluster.RelaunchDelay + p.RestartLocal()
		if runs[i].Path != "local" {
			predicted = cluster.RelaunchDelay + p.RestartRemote()
		}
		rows[i] = AvailabilityRow{
			Path:            runs[i].Path,
			Kind:            runs[i].Kind,
			MTTR:            res.MTTR,
			ModelMTTR:       predicted,
			RecoveredLocal:  res.RecoveryLocal,
			RecoveredRemote: res.RecoveryRemote,
			RecoveredBottom: res.RecoveryBottom,
			Degraded:        res.DegradedTime,
		}
	})
	return rows
}

// PrintAvailability renders the MTTR comparison.
func PrintAvailability(w io.Writer, rows []AvailabilityRow) {
	fmt.Fprintln(w, "== Availability: measured MTTR per recovery tier vs §III restart model ==")
	tb := &report.Table{Header: []string{
		"path", "fault", "MTTR", "model", "local", "remote", "bottom", "degraded",
	}}
	for _, r := range rows {
		tb.AddRow(
			r.Path,
			r.Kind,
			r.MTTR.Round(time.Millisecond).String(),
			r.ModelMTTR.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.RecoveredLocal),
			fmt.Sprintf("%d", r.RecoveredRemote),
			fmt.Sprintf("%d", r.RecoveredBottom),
			r.Degraded.Round(time.Millisecond).String(),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "model = relaunch delay + R_lcl (soft) or + R_rmt (hard/buddy-loss); see DESIGN.md")
}
