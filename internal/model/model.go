// Package model implements the paper's Section III performance model: the
// two-level checkpoint timing decomposition (Equation 1 and the terms that
// follow), the failure-rate-driven checkpoint counts, restart/recomputation
// costs, application efficiency, and the pre-copy threshold used by the
// delayed pre-copy (DCPC) engine. Symbols follow Table II.
package model

import (
	"math"
	"time"
)

// Params collects the model inputs.
type Params struct {
	// TCompute is the total compute-only time of the application run.
	TCompute time.Duration
	// MTBFLocal is the mean time between failures recoverable from local
	// NVM (soft errors: process crash, node reboot).
	MTBFLocal time.Duration
	// MTBFRemote is the mean time between failures requiring remote
	// recovery (hard errors: node loss).
	MTBFRemote time.Duration
	// IntervalLocal is the local checkpoint interval I.
	IntervalLocal time.Duration
	// IntervalRemote is the remote checkpoint interval T_seg.
	IntervalRemote time.Duration
	// CkptSize is the per-process checkpoint data size D in bytes.
	CkptSize int64
	// NVMBWPerCore is the effective NVM write bandwidth per core,
	// NVMBW_core, in bytes/sec.
	NVMBWPerCore float64
	// RemoteBWPerCore is the effective interconnect bandwidth available
	// per process for remote checkpoint transfer, bytes/sec.
	RemoteBWPerCore float64
	// RemoteOverheadFraction is o_rmt expressed as a fraction of compute
	// time lost to asynchronous-checkpoint noise (alpha_comm +
	// alpha_others); measured, not derived.
	RemoteOverheadFraction float64
}

// LocalCkptTime returns t_lcl = D / NVMBW_core.
func (p Params) LocalCkptTime() time.Duration {
	return durFromSeconds(float64(p.CkptSize) / p.NVMBWPerCore)
}

// RemoteCkptTime returns t_rmt = D / remote bandwidth.
func (p Params) RemoteCkptTime() time.Duration {
	return durFromSeconds(float64(p.CkptSize) / p.RemoteBWPerCore)
}

// NLocal returns the number of local checkpoints over the run, T_compute/I.
func (p Params) NLocal() float64 {
	return float64(p.TCompute) / float64(p.IntervalLocal)
}

// K returns the number of local checkpoints per remote checkpoint interval.
func (p Params) K() float64 {
	return float64(p.IntervalRemote) / float64(p.IntervalLocal)
}

// TLocal returns T_lcl = N_lcl * t_lcl, the total blocking local checkpoint
// time over the run.
func (p Params) TLocal() time.Duration {
	return time.Duration(p.NLocal() * float64(p.LocalCkptTime()))
}

// ORemote returns O_rmt, the total overhead the asynchronous remote
// checkpoints impose on the application.
func (p Params) ORemote() time.Duration {
	return time.Duration(p.RemoteOverheadFraction * float64(p.TCompute))
}

// FLocal returns F_lcl, the expected number of locally recoverable failures.
func (p Params) FLocal() float64 {
	return float64(p.TCompute) / float64(p.MTBFLocal)
}

// RestartLocal returns R_lcl, the time to fetch a checkpoint from local NVM
// (read at NVM read speed, taken equal to the local checkpoint time per the
// paper's proportionality assumption).
func (p Params) RestartLocal() time.Duration { return p.LocalCkptTime() }

// RestartRemote returns R_rmt, the remote checkpoint fetch time.
func (p Params) RestartRemote() time.Duration { return p.RemoteCkptTime() }

// TLocalRecovery returns T_lclrstart + T_lclrecomp =
// F_lcl * (R_lcl + (I + t_lcl)/2): each soft failure costs a local fetch
// plus, on average, half an interval of recomputation.
func (p Params) TLocalRecovery() time.Duration {
	per := float64(p.RestartLocal()) + float64(p.IntervalLocal+p.LocalCkptTime())/2
	return time.Duration(p.FLocal() * per)
}

// TRemoteRecovery returns T_rmtrstart + T_rmtrecomp for a given total
// runtime estimate: F_rmt = T_total/MTBF_rmt hard failures, each costing a
// remote fetch plus on average K/2 redone segments of (I + t_lcl).
func (p Params) TRemoteRecovery(tTotal time.Duration) time.Duration {
	fRmt := float64(tTotal) / float64(p.MTBFRemote)
	per := float64(p.RestartRemote()) + p.K()*float64(p.IntervalLocal+p.LocalCkptTime())/2
	return time.Duration(fRmt * per)
}

// TTotal solves Equation 1,
//
//	T_total = T_compute + T_lcl + O_rmt + T_restart + T_recomp,
//
// by fixed-point iteration (the remote failure count depends on T_total
// itself). It converges in a handful of iterations for any sane MTBF.
func (p Params) TTotal() time.Duration {
	t := p.TCompute
	base := p.TCompute + p.TLocal() + p.ORemote() + p.TLocalRecovery()
	for i := 0; i < 64; i++ {
		next := base + p.TRemoteRecovery(t)
		if absDur(next-t) < time.Millisecond {
			return next
		}
		t = next
	}
	return t
}

// Efficiency returns the ratio of ideal (no-failure, no-checkpoint) runtime
// to modeled actual runtime — the y-axis of Figure 9.
func (p Params) Efficiency() float64 {
	return float64(p.TCompute) / float64(p.TTotal())
}

// PreCopyThreshold computes the DCPC pre-copy start offset within a
// checkpoint interval:
//
//	T_c = D / NVMBW_core    (time the checkpoint data needs to drain)
//	T_p = I - T_c           (how far into the interval pre-copy may wait)
//
// A non-positive result means the interval is too short to hide the copy and
// pre-copy should start immediately.
func PreCopyThreshold(interval time.Duration, ckptSize int64, bwPerCore float64) time.Duration {
	tc := durFromSeconds(float64(ckptSize) / bwPerCore)
	tp := interval - tc
	if tp < 0 {
		return 0
	}
	return tp
}

// OptimalInterval returns Young's first-order optimal checkpoint interval,
// sqrt(2 * t_ckpt * MTBF), used to pick sensible defaults for experiments.
func OptimalInterval(ckptTime, mtbf time.Duration) time.Duration {
	return durFromSeconds(math.Sqrt(2 * ckptTime.Seconds() * mtbf.Seconds()))
}

func durFromSeconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
