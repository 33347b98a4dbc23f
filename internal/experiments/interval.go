package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/fault"
	"nvmcp/internal/model"
	"nvmcp/internal/report"
)

// IntervalRow is one checkpoint-interval point under failure injection.
type IntervalRow struct {
	Interval time.Duration
	// ExecTime is the measured completion time including failures,
	// recovery and recomputation.
	ExecTime time.Duration
	// Failures actually struck the run.
	Failures int
}

// IntervalResult carries the sweep plus Young's analytic optimum.
type IntervalResult struct {
	MTBF  time.Duration
	Ideal time.Duration
	Rows  []IntervalRow
	// YoungOpt is sqrt(2 * t_ckpt * MTBF) for the run's checkpoint cost —
	// the first-order optimal interval the measured U-curve should bracket.
	YoungOpt time.Duration
	// Best is the measured best interval.
	Best time.Duration
}

// RunInterval reproduces the classic checkpoint-interval trade-off the
// Section III model implies: checkpoint too often and the overhead
// dominates; too rarely and each failure wastes long recomputation. CM1
// runs under seeded exponential soft failures while the local checkpoint
// interval sweeps 1-16 iterations; the measured optimum should bracket
// Young's analytic sqrt(2 · t_ckpt · MTBF).
func RunInterval(scale Scale) IntervalResult {
	sc := preset("interval", scale)
	// The preset runs 12 iterations at its single 4-iteration interval.
	// The sweep reaches 16-iteration intervals, so it runs 48 iterations:
	// even the longest interval checkpoints three times.
	const iterations = 48
	sc.Iterations = iterations
	base := lower(sc)

	mtbf := 90 * time.Second
	ideal := idealTime(base)

	// One seeded failure schedule shared by every interval choice, so the
	// sweep varies exactly one thing.
	rng := rand.New(rand.NewSource(7))
	var fails []fault.Event
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() * float64(mtbf))
		if t > 4*ideal {
			break
		}
		fails = append(fails, fault.Event{At: t, Node: 0, Kind: fault.Soft})
	}

	intervals := []int{1, 2, 4, 8, 16}
	rows := make([]IntervalRow, len(intervals))
	sweep(len(intervals), func(i int) {
		sc := preset("interval", scale)
		sc.Iterations = iterations
		sc.Local.Every = intervals[i]
		cfg := lower(sc)
		cfg.Failures = fails
		res, _ := cluster.MustRun(cfg)
		rows[i] = IntervalRow{
			Interval: time.Duration(intervals[i]) * base.App.IterTime,
			ExecTime: res.ExecTime,
			Failures: res.FailuresInjected,
		}
	})

	// Checkpoint cost for Young's formula: D at the per-core share.
	tCkpt := time.Duration(float64(base.App.CheckpointSize()) / base.NVMPerCoreBW * float64(time.Second))
	out := IntervalResult{
		MTBF:     mtbf,
		Ideal:    ideal,
		Rows:     rows,
		YoungOpt: model.OptimalInterval(tCkpt, mtbf),
	}
	best := rows[0]
	for _, r := range rows[1:] {
		if r.ExecTime < best.ExecTime {
			best = r
		}
	}
	out.Best = best.Interval
	return out
}

// PrintInterval renders the interval sweep.
func PrintInterval(w io.Writer, r IntervalResult) {
	fmt.Fprintf(w, "== Checkpoint interval under failures (CM1, MTBF %v, ideal %v) ==\n",
		r.MTBF, r.Ideal.Round(time.Second))
	tb := &report.Table{Header: []string{"interval", "exec time", "overhead vs ideal", "failures hit"}}
	for _, row := range r.Rows {
		tb.AddRow(
			row.Interval.String(),
			row.ExecTime.Round(time.Millisecond).String(),
			report.FmtPctFixed(overhead(row.ExecTime, r.Ideal)),
			fmt.Sprintf("%d", row.Failures),
		)
	}
	tb.Write(w)
	fmt.Fprintf(w, "measured best interval: %v; Young's first-order optimum: %v\n",
		r.Best, r.YoungOpt.Round(time.Second))
}
