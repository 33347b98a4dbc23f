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

// AvailabilityRow is one faulted run, named for the recovery tier its fault
// class aims at. The Recovered* counts say which tier really served it.
type AvailabilityRow struct {
	// Path names the recovery tier the injected fault class aims at.
	Path string
	// Kind is the injected fault schedule, in taxonomy terms.
	Kind string
	// MTTR is the measured failure→all-ranks-recovered repair time.
	MTTR time.Duration
	// ModelMTTR is the §III prediction: the relaunch delay plus the
	// matching restart term (R_lcl for soft failures, R_rmt when the data
	// must cross the fabric).
	ModelMTTR time.Duration
	// Recovered* split the post-failure chunk recoveries by source tier;
	// RecoveredLost counts the chunks no tier could serve.
	RecoveredLocal  int64
	RecoveredRemote int64
	RecoveredBottom int64
	RecoveredLost   int64
	// Degraded is total time in degraded mode (repair plus link outages).
	Degraded time.Duration
}

// AvailabilityScenario is one availability run's declarative shape: a fully
// built scenario plus the fault class injected and the recovery tier it aims
// at. Exported so invariant checks can replay the exact runs the
// experiment reports on.
type AvailabilityScenario struct {
	// Path names the recovery tier the injected fault class aims at.
	Path string
	// Kind is the injected fault schedule, in taxonomy terms.
	Kind string
	// Scenario is the runnable configuration: the faults preset with this
	// run's fault schedule in place of the cascade.
	Scenario *scenario.Scenario
}

// AvailabilityScenarios builds the experiment's three faulted runs from the
// faults preset — soft (aimed at local restore), hard (remote fetch), and NVM
// corruption compounded by buddy loss (PFS fetch for the damaged chunks) —
// at the preset's fault times. Those times are fixed in virtual seconds, so
// not every scale reaches the aimed-at tier: at quick scale none of the
// damaged chunks has drained to the PFS yet, and at paper scale no remote
// copy has committed yet. EXPERIMENTS.md (EXT-AVAIL) lists which tier serves
// each row.
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
		sc := preset("faults", scale)
		sc.Name = "availability"
		sc.Failures = failures[i]
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
			RecoveredLost:   res.RecoveryLost,
			Degraded:        res.DegradedTime,
		}
	})
	return rows
}

// PrintAvailability renders the MTTR comparison.
func PrintAvailability(w io.Writer, rows []AvailabilityRow) {
	fmt.Fprintln(w, "== Availability: measured MTTR per recovery tier vs §III restart model ==")
	tb := &report.Table{Header: []string{
		"path", "fault", "MTTR", "model", "local", "remote", "bottom", "lost", "degraded",
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
			fmt.Sprintf("%d", r.RecoveredLost),
			r.Degraded.Round(time.Millisecond).String(),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "model = relaunch delay + R_lcl (soft) or + R_rmt (hard/buddy-loss); see DESIGN.md")
}
