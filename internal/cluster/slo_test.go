package cluster

import (
	"testing"

	"nvmcp/internal/scenario"
	"nvmcp/internal/slo"
)

// totalsSpec asks the SLO recorder for a final (whole-run) value of every
// series the cluster also derives from its registry counters. The bounds
// are loose: only the values matter.
var totalsSpec = &slo.Spec{Objectives: []slo.Objective{
	{Name: "hit", Series: "precopy_hit_rate", Direction: slo.AtLeast, Threshold: 0, Final: true},
	{Name: "redirty", Series: "redirty_rate", Direction: slo.AtLeast, Threshold: 0, Final: true},
	{Name: "local", Series: "recovery_local", Direction: slo.AtLeast, Threshold: 0, Final: true},
	{Name: "remote", Series: "recovery_remote", Direction: slo.AtLeast, Threshold: 0, Final: true},
	{Name: "bottom", Series: "recovery_bottom", Direction: slo.AtLeast, Threshold: 0, Final: true},
	{Name: "lost", Series: "recovery_lost", Direction: slo.AtLeast, Threshold: 0, Final: true},
}}

// TestSLOTotalsMatchCounters pins the fact the flight recorder is built
// on: its run totals, folded from events alone, equal the counter-derived
// figures of the Result on every cluster preset — the Figure 9 hit and
// re-dirty rates and the chunks each recovery tier served. No preset
// re-dirties a pre-copied chunk, so a CPC run checkpointing every second
// iteration rides along.
func TestSLOTotalsMatchCounters(t *testing.T) {
	type run struct {
		name  string
		build func() (Config, error)
	}
	runs := []run{{"cpc-every-2", func() (Config, error) { return cpcEvery2Cfg(), nil }}}
	for _, p := range scenario.Presets() {
		if p.ClusterShaped() {
			runs = append(runs, run{p.ID, func() (Config, error) {
				sc, err := scenario.BuildPreset(p.ID, scenario.ScaleTiny)
				if err != nil {
					return Config{}, err
				}
				return FromScenario(sc)
			}})
		}
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfg, err := r.build()
			if err != nil {
				t.Fatal(err)
			}
			cfg.SLO = &slo.Config{Enabled: true, Spec: totalsSpec}
			res, c, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			final := map[string]float64{}
			for _, st := range c.SLO.Objectives() {
				if st.FinalValue != nil {
					final[st.Series] = *st.FinalValue
				}
			}
			sum := c.SLO.Summary()
			for _, chk := range []struct {
				name      string
				got, want float64
			}{
				{"Summary.PrecopyHitRate", sum.PrecopyHitRate, res.PreCopyHitRate},
				{"Summary.RedirtyRate", sum.RedirtyRate, res.ReDirtyRate},
				{"final precopy_hit_rate", final["precopy_hit_rate"], res.PreCopyHitRate},
				{"final redirty_rate", final["redirty_rate"], res.ReDirtyRate},
				{"final recovery_local", final["recovery_local"], float64(res.RecoveryLocal)},
				{"final recovery_remote", final["recovery_remote"], float64(res.RecoveryRemote)},
				{"final recovery_bottom", final["recovery_bottom"], float64(res.RecoveryBottom)},
				{"final recovery_lost", final["recovery_lost"], float64(res.RecoveryLost)},
			} {
				if chk.got != chk.want {
					t.Errorf("%s = %g, Result says %g", chk.name, chk.got, chk.want)
				}
			}
		})
	}
}
