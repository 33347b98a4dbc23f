package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/workload"
)

// Fig9Point is one configuration of the remote-checkpoint efficiency
// experiment: efficiency (ideal/actual runtime) for asynchronous remote
// checkpointing with and without pre-copy.
type Fig9Point struct {
	BWPerCore      float64
	RemoteEvery    int // K: local checkpoints per remote interval
	RemoteInterval time.Duration

	IdealExec time.Duration
	NoPreExec time.Duration
	PreExec   time.Duration
	EffNoPre  float64
	EffPre    float64
	OvhNoPre  float64
	OvhPre    float64
	// PreHitRate / ReDirtyRate characterize the local pre-copy under the
	// pre-copy remote run, from the obs registry rollups: the fraction of
	// checkpoint data moved ahead of the blocking step, and the wasted
	// (re-dirtied) pre-copies per pre-copied chunk.
	PreHitRate  float64
	ReDirtyRate float64
}

// Fig9Result is the full sweep plus the paper's headline averages.
type Fig9Result struct {
	App    string
	Scale  Scale
	Points []Fig9Point
	// AvgOvhNoPre / AvgOvhPre correspond to the paper's 10.6% vs 6.2%
	// (a ~40% reduction in remote checkpoint overhead).
	AvgOvhNoPre float64
	AvgOvhPre   float64
}

// RunFig9 reproduces Figure 9: GTC with asynchronous remote checkpoints to a
// buddy node, sweeping the remote interval (K = 1..4 local checkpoints per
// remote, local interval ~40 s → remote ~47-180 s with checkpoint time
// included) and the effective NVM bandwidth. 'no pre-copy' triggers a full
// asynchronous burst at each remote checkpoint; 'pre-copy' ships staged
// chunks incrementally, rate-capped, with a DCPC-style delay.
func RunFig9(app workload.AppSpec, scale Scale) Fig9Result {
	out := Fig9Result{App: app.Name, Scale: scale}
	bws := []float64{400e6, 800e6, 1600e6}
	ks := []int{1, 2, 4}
	if scale == Quick {
		bws = []float64{400e6, 1600e6}
		ks = []int{1, 3}
	}
	type cell struct{ bw, k int }
	var cells []cell
	for bi := range bws {
		for ki := range ks {
			cells = append(cells, cell{bi, ki})
		}
	}
	out.Points = make([]Fig9Point, len(cells))
	sweep(len(cells), func(i int) {
		bw, k := bws[cells[i].bw], ks[cells[i].k]
		base := baseConfig(app, scale, bw)
		if k > base.Iterations {
			base.Iterations = k
		}
		base.RemoteEvery = k
		base.Local = "dcpcp"
		base.LinkBW = fig9LinkBW(scale)

		ideal := idealTime(base)

		noPre := base
		noPre.Remote = "buddy-burst"
		noPreRes, _ := cluster.MustRun(noPre)

		pre := base
		pre.Remote = "buddy-precopy"
		interval := time.Duration(k) * base.App.IterTime
		// Budget twice the minimum sustained shipping rate (the scenario
		// layer's auto cap): incremental shipping re-sends chunks re-staged
		// within the interval, and the headroom lets the post-trigger
		// catch-up finish promptly. Shipping this slowly leaves the
		// application's communication the bulk of the link whenever they
		// overlap; the remote commit may finish into the following segment —
		// exactly Figure 5c's overlap.
		pre.RemoteRateCap = scenario.AutoRemoteRateCap(
			base.App.CheckpointSize(), base.CoresPerNode, base.App.IterTime, k)
		preRes, _ := cluster.MustRun(pre)

		out.Points[i] = Fig9Point{
			BWPerCore:      bw,
			RemoteEvery:    k,
			RemoteInterval: interval,
			IdealExec:      ideal,
			NoPreExec:      noPreRes.ExecTime,
			PreExec:        preRes.ExecTime,
			EffNoPre:       float64(ideal) / float64(noPreRes.ExecTime),
			EffPre:         float64(ideal) / float64(preRes.ExecTime),
			OvhNoPre:       overhead(noPreRes.ExecTime, ideal),
			OvhPre:         overhead(preRes.ExecTime, ideal),
			PreHitRate:     preRes.PreCopyHitRate,
			ReDirtyRate:    preRes.ReDirtyRate,
		}
	})
	var sumNo, sumPre float64
	for _, pt := range out.Points {
		sumNo += pt.OvhNoPre
		sumPre += pt.OvhPre
	}
	n := float64(len(out.Points))
	out.AvgOvhNoPre = sumNo / n
	out.AvgOvhPre = sumPre / n
	return out
}

// fig9LinkBW sizes the per-node link so a node's remote checkpoint volume
// takes an appreciable fraction of the interval, as it does on the paper's
// testbed (12 ranks × ~430 MB over one 40 Gbps link ≈ seconds of transfer).
// Paper scale uses the effective per-node share of the fabric — raw QDR is
// ~4 GB/s, but switch oversubscription and bidirectional neighbour traffic
// leave roughly a quarter of that to any one node's egress under load.
// Quick runs shrink data volume, so the link shrinks with it to preserve the
// contention shape.
func fig9LinkBW(scale Scale) float64 {
	if scale == Paper {
		return 1e9
	}
	return 250e6
}

// PrintFig9 renders the efficiency sweep.
func PrintFig9(w io.Writer, r Fig9Result) {
	fmt.Fprintf(w, "== Remote checkpoint efficiency, %s (%s scale): async pre-copy vs async burst ==\n", r.App, r.Scale)
	tb := &report.Table{Header: []string{
		"NVM BW/core", "K", "remote interval", "eff no-pre", "eff pre", "ovh no-pre", "ovh pre",
		"hit rate", "re-dirty",
	}}
	for _, pt := range r.Points {
		tb.AddRow(
			report.FmtRate(pt.BWPerCore),
			fmt.Sprintf("%d", pt.RemoteEvery),
			pt.RemoteInterval.String(),
			fmt.Sprintf("%.3f", pt.EffNoPre),
			fmt.Sprintf("%.3f", pt.EffPre),
			report.FmtPctFixed(pt.OvhNoPre),
			report.FmtPctFixed(pt.OvhPre),
			report.FmtPctFixed(pt.PreHitRate),
			report.FmtPctFixed(pt.ReDirtyRate),
		)
	}
	tb.Write(w)
	fmt.Fprintf(w, "average overhead: no-pre %s, pre %s (paper: 10.6%% vs 6.2%%, ~40%% reduction)\n",
		report.FmtPctFixed(r.AvgOvhNoPre), report.FmtPctFixed(r.AvgOvhPre))
}
