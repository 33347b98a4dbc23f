package experiments

import (
	"fmt"
	"io"

	"nvmcp/internal/cluster"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
)

// EnduranceRow projects NVM wear and write energy for one checkpoint scheme.
type EnduranceRow struct {
	Scheme string
	// WriteRate is the sustained NVM write load in bytes/sec per node.
	WriteRate float64
	// LifetimeYears is the projected device lifetime in years under that
	// load, assuming ideal wear leveling (Table I: 10^8 write endurance).
	LifetimeYears float64
	// EnergyPerHour is the NVM write energy per node-hour in joules
	// (Table I: 40x DRAM's per-bit write energy).
	EnergyPerHour float64
	// BytesPerCkpt is the NVM write volume per checkpoint round per node.
	BytesPerCkpt float64
}

// RunEndurance evaluates a dimension the paper's Table I raises but its
// evaluation leaves open: PCM's 10^8 write endurance and 40x write energy
// mean checkpoint schemes that move *more* data (CPC's repeated hot-chunk
// copies; forced full checkpoints) age the device faster and burn more
// energy. The run measures each scheme's sustained NVM write rate on the
// endurance preset's LAMMPS workload and projects lifetime and energy.
func RunEndurance(scale Scale) []EnduranceRow {
	type schemeDef struct {
		name      string
		policy    string
		forceFull bool
	}
	schemes := []schemeDef{
		{"full checkpoint (no tracking)", "none", true},
		{"dirty tracking, no pre-copy", "none", false},
		{"CPC (eager)", "cpc", false},
		{"DCPCP (delayed+prediction)", "dcpcp", false},
	}
	rows := make([]EnduranceRow, len(schemes))
	sweep(len(schemes), func(i int) {
		sd := schemes[i]
		sc := preset("endurance", scale)
		sc.Local = scenario.LocalSpec{Policy: sd.policy, ForceFull: sd.forceFull}
		cfg := lower(sc)
		res, c := cluster.MustRun(cfg)

		// Sum NVM write traffic over all nodes and normalize per node.
		var written int64
		for n := 0; n < cfg.Nodes; n++ {
			written += c.Kernel(n).NVM.BytesWritten
		}
		perNode := float64(written) / float64(cfg.Nodes)
		rate := perNode / res.ExecTime.Seconds()
		dev := c.Kernel(0).NVM
		energyPerSec := rate * 8 * dev.WriteEnergyPerBit
		rows[i] = EnduranceRow{
			Scheme:        sd.name,
			WriteRate:     rate,
			LifetimeYears: dev.LifetimeYearsAt(rate),
			EnergyPerHour: energyPerSec * 3600,
			BytesPerCkpt:  perNode / float64(res.LocalCkpts),
		}
	})
	return rows
}

// PrintEndurance renders the wear/energy projection.
func PrintEndurance(w io.Writer, rows []EnduranceRow) {
	fmt.Fprintln(w, "== NVM endurance & write energy by checkpoint scheme (LAMMPS, Table I device) ==")
	tb := &report.Table{Header: []string{
		"scheme", "NVM writes/ckpt/node", "sustained rate", "projected lifetime", "write energy/node-hour",
	}}
	for _, r := range rows {
		tb.AddRow(
			r.Scheme,
			report.FmtBytes(r.BytesPerCkpt),
			report.FmtRate(r.WriteRate),
			fmtYears(r.LifetimeYears),
			fmt.Sprintf("%.1f J", r.EnergyPerHour),
		)
	}
	tb.Write(w)
	fmt.Fprintln(w, "(ideal wear leveling over the device; 10^8 writes/cell, 40x DRAM write energy —")
	fmt.Fprintln(w, " eager pre-copy's repeated copies are paid in device lifetime and energy)")
}

func fmtYears(y float64) string {
	if y >= 100 {
		return fmt.Sprintf("%.0f years", y)
	}
	return fmt.Sprintf("%.1f years", y)
}
