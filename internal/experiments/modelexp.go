package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/model"
	"nvmcp/internal/report"
)

// ModelRow is one analytic-model evaluation point.
type ModelRow struct {
	BWPerCore  float64
	Interval   time.Duration
	TLocal     time.Duration
	Efficiency float64
	PreCopyTp  time.Duration
}

// RunModel evaluates the Section III performance model over the Figures 7/8
// bandwidth sweep, reporting the local checkpoint burden, predicted
// efficiency, and the DCPC pre-copy threshold T_p for each point. It is the
// closed-form companion to the simulated experiments.
func RunModel() []ModelRow {
	var rows []ModelRow
	for _, bw := range BWSweepPerCore {
		p := model.Params{
			TCompute:               1000 * time.Second,
			MTBFLocal:              500 * time.Second,
			MTBFRemote:             5000 * time.Second,
			IntervalLocal:          40 * time.Second,
			IntervalRemote:         160 * time.Second,
			CkptSize:               410 * mem.MB,
			NVMBWPerCore:           bw,
			RemoteBWPerCore:        100e6,
			RemoteOverheadFraction: 0.05,
		}
		rows = append(rows, ModelRow{
			BWPerCore:  bw,
			Interval:   p.IntervalLocal,
			TLocal:     p.TLocal(),
			Efficiency: p.Efficiency(),
			PreCopyTp:  model.PreCopyThreshold(p.IntervalLocal, p.CkptSize, bw),
		})
	}
	return rows
}

// PrintModel renders the analytic sweep.
func PrintModel(w io.Writer, rows []ModelRow) {
	fmt.Fprintln(w, "== Section III analytic model: 410MB/core, I=40s, MTBF 500s/5000s ==")
	tb := &report.Table{Header: []string{"NVM BW/core", "T_lcl total", "efficiency", "pre-copy T_p"}}
	for _, r := range rows {
		tb.AddRow(
			report.FmtRate(r.BWPerCore),
			r.TLocal.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f", r.Efficiency),
			r.PreCopyTp.Round(time.Millisecond).String(),
		)
	}
	tb.Write(w)
}
