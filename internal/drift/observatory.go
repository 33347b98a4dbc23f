package drift

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nvmcp/internal/model"
	"nvmcp/internal/obs"
)

// Inputs are the declared model parameters the observatory predicts from.
// The cluster lowers them from its configuration once, at attach time; the
// observatory then replaces individual inputs with measured estimates
// window by window.
type Inputs struct {
	// Params are the declared §III parameters (TCompute is the whole-run
	// compute time, CkptSize the declared per-rank checkpoint size).
	Params model.Params
	// Ranks is the total rank (core) count across the cluster.
	Ranks int
	// IterTime is the declared pure-compute time of one iteration.
	IterTime time.Duration
	// RemoteOn marks the remote checkpoint tier enabled; without it the
	// window-bytes quantity has no prediction (nothing ships).
	RemoteOn bool
}

// Baseline is the window-0 model evaluation: the §III predictions from the
// declared inputs alone, before any telemetry. nvmcp-analyze computes the
// same quantities offline; the cross-check test holds the two together.
type Baseline struct {
	Ranks            int     `json:"ranks"`
	CkptBytesPerRank int64   `json:"ckpt_bytes_per_rank"`
	NVMBWPerCore     float64 `json:"nvm_bw_per_core"`
	RemoteBWPerCore  float64 `json:"remote_bw_per_core,omitempty"`
	IntervalLocalUS  int64   `json:"interval_local_us"`
	IntervalRemoteUS int64   `json:"interval_remote_us,omitempty"`
	MTBFLocalUS      int64   `json:"mtbf_local_us,omitempty"`
	MTBFRemoteUS     int64   `json:"mtbf_remote_us,omitempty"`
	TLclUS           int64   `json:"t_lcl_us"`
	TRmtUS           int64   `json:"t_rmt_us,omitempty"`
	PrecopyTpUS      int64   `json:"precopy_tp_us"`
	Efficiency       float64 `json:"efficiency"`
}

// BaselineFor evaluates the declared model once (the drift report's
// baseline row and the observatory's window-0 predictions).
func BaselineFor(in Inputs) Baseline {
	p := in.Params
	b := Baseline{
		Ranks:            in.Ranks,
		CkptBytesPerRank: p.CkptSize,
		NVMBWPerCore:     p.NVMBWPerCore,
		RemoteBWPerCore:  p.RemoteBWPerCore,
		IntervalLocalUS:  p.IntervalLocal.Microseconds(),
		IntervalRemoteUS: p.IntervalRemote.Microseconds(),
		MTBFLocalUS:      p.MTBFLocal.Microseconds(),
		MTBFRemoteUS:     p.MTBFRemote.Microseconds(),
	}
	if p.NVMBWPerCore > 0 {
		b.TLclUS = p.LocalCkptTime().Microseconds()
		b.PrecopyTpUS = model.PreCopyThreshold(p.IntervalLocal, p.CkptSize, p.NVMBWPerCore).Microseconds()
	}
	if p.RemoteBWPerCore > 0 {
		b.TRmtUS = p.RemoteCkptTime().Microseconds()
	}
	b.Efficiency = predictedEfficiency(p)
	return b
}

// predictedEfficiency evaluates the model's efficiency with guards for
// absent inputs: missing MTBFs become effectively failure-free, a missing
// remote bandwidth borrows the NVM bandwidth (the restart term is then
// negligible anyway under the huge MTBF).
func predictedEfficiency(p model.Params) float64 {
	if p.TCompute <= 0 || p.IntervalLocal <= 0 || p.NVMBWPerCore <= 0 {
		return 0
	}
	const failureFree = 20 * 365 * 24 * time.Hour
	if p.MTBFLocal <= 0 {
		p.MTBFLocal = failureFree
	}
	if p.MTBFRemote <= 0 {
		p.MTBFRemote = failureFree
	}
	if p.IntervalRemote <= 0 {
		p.IntervalRemote = p.IntervalLocal
	}
	if p.RemoteBWPerCore <= 0 {
		p.RemoteBWPerCore = p.NVMBWPerCore
	}
	return p.Efficiency()
}

// Window is one closed estimator window. Values holds only the quantities
// that could be evaluated — measured estimators, re-evaluated model
// predictions, and the err_* drift gauges.
type Window = obs.Window

// winAcc accumulates one open window in integers; floats appear only at
// window close so the fold is order-insensitive within a window.
type winAcc struct {
	commits       int64
	commitBytes   int64
	commitDurUS   int64
	commitCopied  int64
	commitSkipped int64
	stagedBytes   int64
	stagedChunks  int64
	redirtyChunks int64
	redirtyBytes  int64
	precopyBytes  int64
	precopyCopies int64
	shippedBytes  int64
	shippedChunks int64
	rmtDurUS      int64
	rmtN          int64
	iters         int64
}

func (w *winAcc) active() bool {
	return w.commits+w.stagedChunks+w.shippedChunks+w.iters+w.precopyCopies > 0
}

// failAcc tracks one failure class's arrivals for the measured-MTBF
// estimator (mean spacing over [0, last arrival]).
type failAcc struct {
	n      int64
	lastUS int64
}

// qAcc aggregates one quantity's drift gauge across the run and judges
// its limit, if the spec sets one.
type qAcc struct {
	evaluated int
	breached  int
	sum       float64
	max       float64

	limit float64      // MaxRelErr; 0 without a limit
	h     *obs.Horizon // the last Over measured windows' verdicts; nil without a limit
}

// QuantityStatus summarizes one quantity's drift over the run.
type QuantityStatus struct {
	Quantity   string  `json:"quantity"`
	Evaluated  int     `json:"evaluated"`
	MaxRelErr  float64 `json:"max_rel_err"`
	MeanRelErr float64 `json:"mean_rel_err"`
	Breached   int     `json:"breached"`
	LimitMax   float64 `json:"limit_max,omitempty"`
}

// MTBFStatus is one failure class's measured vs declared MTBF.
type MTBFStatus struct {
	Kind         string  `json:"kind"`
	Failures     int64   `json:"failures"`
	MeasuredSecs float64 `json:"measured_mtbf_secs"`
}

// Summary is the run-level rollup.
type Summary struct {
	Windows     int              `json:"windows"`
	Quantities  []QuantityStatus `json:"quantities"`
	PhaseShifts int              `json:"phase_shifts"`
	Violations  int              `json:"violations"`
	MTBF        []MTBFStatus     `json:"mtbf,omitempty"`
}

// Observatory is the drift recorder. Create with New (then feed Observe)
// or Attach (event tap). Its windows close through an
// obs.WindowFold. All exported readers are safe for concurrent use with the
// fold.
type Observatory struct {
	mu   sync.Mutex
	cfg  Config
	in   Inputs
	reg  *obs.Registry
	fold *obs.WindowFold[Violation]
	cur  winAcc

	iterTotal  int64
	fails      map[string]*failAcc
	trigUS     map[int]int64
	mttrSumUS  int64
	mttrN      int64
	lastMeasWB float64 // last window's measured bytes (forecasting)
	lastPredWB float64
	haveWB     bool

	// phase detection over re-dirty rate.
	regimeSum float64
	regimeN   int
	shifts    []PhaseShift

	quants map[string]*qAcc
}

// New builds an observatory; the caller feeds it via Observe.
// reg, when non-nil, receives the drift gauges (drift_rel_err{quantity},
// drift_phase_shifts, drift_windows) at every window close.
func New(cfg Config, in Inputs, reg *obs.Registry) *Observatory {
	d := &Observatory{
		cfg:    cfg,
		in:     in,
		reg:    reg,
		fails:  map[string]*failAcc{},
		trigUS: map[int]int64{},
		quants: map[string]*qAcc{},
	}
	// Windows are whole microseconds, the event stream's resolution.
	width := time.Duration(cfg.Spec.Window().Microseconds()) * time.Microsecond
	d.fold = obs.NewWindowFold[Violation](width, cfg.MaxWindows, cfg.MaxViolations, d.closeWindow)
	for _, q := range quantities {
		d.quants[q] = &qAcc{}
	}
	for _, l := range cfg.Spec.Limits {
		h := obs.NewHorizon(l.horizon())
		qa := d.quants[l.Quantity]
		qa.limit, qa.h = l.MaxRelErr, &h
	}
	return d
}

// Attach builds an observatory and subscribes it to the observer's event
// stream (additive tap; the registry receives the drift gauges).
func Attach(o *obs.Observer, cfg Config, in Inputs) *Observatory {
	d := New(cfg, in, o.Registry())
	o.AddEventTap(d.Observe)
	return d
}

// Observe folds one event. It is the single fold path: the tap calls it
// under the observer's lock, live on a serial run and as obs.MergeShards
// publishes the merged stream on a sharded one.
func (d *Observatory) Observe(ev obs.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.fold.Advance(ev.Time()) {
		return
	}
	switch ev.Type {
	case obs.EvCheckpointCommit:
		d.cur.commits++
		d.cur.commitBytes += ev.Bytes
		d.cur.commitDurUS += attrInt(ev, "dur_us")
		d.cur.commitCopied += attrInt(ev, "copied")
		d.cur.commitSkipped += attrInt(ev, "skipped")
	case obs.EvChunkStaged:
		d.cur.stagedBytes += ev.Bytes
		d.cur.stagedChunks++
	case obs.EvChunkReDirtied:
		d.cur.redirtyChunks++
		d.cur.redirtyBytes += ev.Bytes
	case obs.EvPrecopyCopy:
		d.cur.precopyBytes += ev.Bytes
		d.cur.precopyCopies++
	case obs.EvChunkShipped:
		d.cur.shippedBytes += ev.Bytes
		d.cur.shippedChunks++
	case obs.EvRemoteTrigger:
		d.trigUS[ev.Node] = ev.TUS
	case obs.EvRemoteCommit:
		if t, ok := d.trigUS[ev.Node]; ok {
			d.cur.rmtDurUS += ev.TUS - t
			d.cur.rmtN++
			delete(d.trigUS, ev.Node)
		}
	case obs.EvIteration:
		d.cur.iters++
		d.iterTotal++
	case obs.EvFailure:
		kind := ev.Attrs.Str("kind")
		fa := d.fails[kind]
		if fa == nil {
			fa = &failAcc{}
			d.fails[kind] = fa
		}
		fa.n++
		fa.lastUS = ev.TUS
	case obs.EvRepairDone:
		d.mttrSumUS += attrInt(ev, "mttr_us")
		d.mttrN++
	}
}

// attrInt reads an integer attribute, 0 when absent.
func attrInt(ev obs.Event, key string) int64 {
	v, _ := ev.Attrs.Int(key)
	return v
}

// measuredMTBF returns the mean failure spacing (µs) of the classes
// matched by local (soft errors) or remote (everything else) recovery, 0
// when no failure of the class has been seen. Callers hold d.mu.
func (d *Observatory) measuredMTBF(local bool) int64 {
	var n, last int64
	for kind, fa := range d.fails {
		if (kind == "soft") != local {
			continue
		}
		n += fa.n
		if fa.lastUS > last {
			last = fa.lastUS
		}
	}
	if n == 0 || last == 0 {
		return 0
	}
	return last / n
}

// closeWindow is the fold's close function: it evaluates the estimators,
// re-runs the model with measured inputs, emits the drift gauges, and feeds
// the phase detector and the limit evaluator. Callers hold d.mu.
func (d *Observatory) closeWindow(row *Window, _, _ time.Duration) {
	idx, endUS := row.Index, row.EndUS
	winSecs := float64(d.fold.Width().Microseconds()) / 1e6
	w := d.cur
	d.cur = winAcc{}
	v := map[string]float64{}
	p := d.in.Params

	// Measured estimators.
	if w.stagedChunks > 0 {
		v["redirty_rate"] = float64(w.redirtyChunks) / float64(w.stagedChunks)
	}
	if w.commitCopied+w.commitSkipped > 0 {
		v["precopy_hit_rate"] = float64(w.commitSkipped) / float64(w.commitCopied+w.commitSkipped)
	}
	if w.commitDurUS > 0 && w.commitBytes > 0 {
		v["nvm_bw"] = float64(w.commitBytes) / (float64(w.commitDurUS) / 1e6)
	}
	if w.shippedChunks > 0 {
		v["remote_drain_bw"] = float64(w.shippedBytes) / winSecs
	}
	if w.rmtN > 0 {
		v["t_rmt_meas_s"] = float64(w.rmtDurUS) / float64(w.rmtN) / 1e6
	}
	if mtbf := d.measuredMTBF(true); mtbf > 0 {
		v["mtbf_local_s"] = float64(mtbf) / 1e6
	}
	if mtbf := d.measuredMTBF(false); mtbf > 0 {
		v["mtbf_remote_s"] = float64(mtbf) / 1e6
	}

	// ckpt_time: the model's t_lcl for the bytes a commit actually copied
	// (the measured workload input) at the declared NVM bandwidth, vs the
	// measured commit duration. Zero-copy commits (a perfect pre-copy pass)
	// measure only fixed overhead the model does not predict, so they are
	// skipped rather than scored as 100% drift.
	if w.commits > 0 && w.commitBytes > 0 && p.NVMBWPerCore > 0 {
		dirtyPerCommit := float64(w.commitBytes) / float64(w.commits)
		pred := dirtyPerCommit / p.NVMBWPerCore
		meas := float64(w.commitDurUS) / float64(w.commits) / 1e6
		v["ckpt_time_pred_s"] = pred
		v["ckpt_time_meas_s"] = meas
		v["err_"+QtyCkptTime] = relErr(pred, meas)

		// precopy_tp: T_p = I - T_c re-evaluated with the measured dirty
		// residue, vs the threshold the measured commit duration implies.
		if p.IntervalLocal > 0 {
			iSecs := p.IntervalLocal.Seconds()
			predTp := math.Max(0, iSecs-pred)
			measTp := math.Max(0, iSecs-meas)
			v["precopy_tp_pred_s"] = predTp
			v["precopy_tp_meas_s"] = measTp
			v["err_"+QtyPrecopyTp] = relErr(predTp, measTp)
		}
	}

	// window_bytes: the model spreads each segment's D·P bytes evenly over
	// the remote interval — the steady interconnect load §III assumes — vs
	// the bytes the drain actually shipped this window. Windows with no
	// remote activity at all (neither staging nor shipping) carry no signal
	// and are skipped; the gauge then reads how bursty the real drain is
	// relative to the model's smooth spread.
	if d.in.RemoteOn && w.stagedBytes+w.shippedBytes > 0 &&
		p.IntervalRemote > 0 && p.CkptSize > 0 && d.in.Ranks > 0 {
		pred := float64(p.CkptSize) * float64(d.in.Ranks) / p.IntervalRemote.Seconds() * winSecs
		meas := float64(w.shippedBytes)
		v["window_bytes_pred"] = pred
		v["window_bytes_meas"] = meas
		v["err_"+QtyWindowBytes] = relErr(pred, meas)
		d.lastPredWB, d.lastMeasWB, d.haveWB = pred, meas, true
	}

	// efficiency: the model re-evaluated with the measured MTBFs (declared
	// values until a class is observed), vs the cumulative measured
	// efficiency — completed compute over elapsed virtual time.
	if d.iterTotal > 0 && d.in.Ranks > 0 && d.in.IterTime > 0 {
		q := p
		if mtbf := d.measuredMTBF(true); mtbf > 0 {
			q.MTBFLocal = time.Duration(mtbf) * time.Microsecond
		}
		if mtbf := d.measuredMTBF(false); mtbf > 0 {
			q.MTBFRemote = time.Duration(mtbf) * time.Microsecond
		}
		pred := predictedEfficiency(q)
		meas := float64(d.iterTotal) * float64(d.in.IterTime.Microseconds()) /
			(float64(d.in.Ranks) * float64(endUS))
		if pred > 0 {
			v["efficiency_pred"] = pred
			v["efficiency_meas"] = meas
			v["err_"+QtyEfficiency] = relErr(pred, meas)
		}
	}

	// Phase detection: a window's re-dirty rate jumping past the trailing
	// regime mean by the configured factor (and the absolute guard) marks
	// a workload phase change and resets the regime.
	if r, ok := v["redirty_rate"]; ok {
		factor := d.cfg.Spec.phaseFactor()
		if d.regimeN >= d.cfg.Spec.phaseWarmup() {
			mean := d.regimeSum / float64(d.regimeN)
			up := r >= mean*factor && r-mean >= phaseAbsGuard
			down := r <= mean/factor && mean-r >= phaseAbsGuard
			if up || down {
				d.shifts = append(d.shifts, PhaseShift{TUS: endUS, Window: idx, From: mean, To: r})
				d.regimeSum, d.regimeN = 0, 0
			}
		}
		d.regimeSum += r
		d.regimeN++
	}

	// Limits: one violation per episode of Over consecutive breached
	// measured windows.
	for _, q := range quantities {
		e, ok := v["err_"+q]
		if !ok {
			continue
		}
		qa := d.quants[q]
		qa.evaluated++
		qa.sum += e
		if e > qa.max {
			qa.max = e
		}
		if qa.h == nil {
			continue
		}
		if e > qa.limit {
			qa.breached++
		}
		qa.h.Push(e > qa.limit)
		// A limit breaches while its whole horizon breaches.
		if qa.h.Judge(qa.h.Bad() == qa.h.Len()) {
			d.fold.Violate(Violation{
				TUS: endUS, Window: idx, Quantity: q, RelErr: e,
				MaxRelErr: qa.limit, Over: qa.h.Len(),
				Detail: fmt.Sprintf("%s drift %.3f > %.3f for %d consecutive window(s)",
					q, e, qa.limit, qa.h.Len()),
			})
		}
	}

	// Gauges on the registry: the live observability surface.
	if d.reg != nil {
		for _, q := range quantities {
			if e, ok := v["err_"+q]; ok {
				d.reg.Gauge("drift_rel_err", obs.Labels{"quantity": q}).Set(e)
			}
		}
		d.reg.Gauge("drift_phase_shifts", nil).Set(float64(len(d.shifts)))
		d.reg.Gauge("drift_windows", nil).Set(float64(idx + 1))
	}
	row.Values = v
}

// relErr is the bounded symmetric relative error |a-b| / max(|a|,|b|).
func relErr(pred, meas float64) float64 {
	den := math.Max(math.Abs(pred), math.Abs(meas))
	if den == 0 {
		return 0
	}
	return math.Abs(pred-meas) / den
}

// Finalize closes windows through the run's virtual end, including a
// partial tail window when it saw activity. Idempotent.
func (d *Observatory) Finalize(now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.fold.Advance(now) {
		return
	}
	var tail time.Duration // no tail window unless it saw activity
	if d.cur.active() {
		tail = max(now, d.fold.Open()+time.Microsecond)
	}
	d.fold.Finish(now, tail)
}

// Windows returns the retained window rows.
func (d *Observatory) Windows() []Window {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fold.Windows()
}

// PhaseShifts returns the detected regime changes.
func (d *Observatory) PhaseShifts() []PhaseShift {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PhaseShift, len(d.shifts))
	copy(out, d.shifts)
	return out
}

// Violations returns the retained drift-limit violations.
func (d *Observatory) Violations() []Violation {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fold.Violations()
}

// ViolationCount counts every violation, including ones dropped past the
// retention cap.
func (d *Observatory) ViolationCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fold.ViolationCount()
}

// Strict reports whether violations should fail the run.
func (d *Observatory) Strict() bool { return d.cfg.Strict }

// Err returns a run-failing error when any limit was violated.
func (d *Observatory) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.fold.ViolationCount()
	if n == 0 {
		return nil
	}
	return errors.New(d.fold.Violations()[0].String() + violationSuffix(n))
}

func violationSuffix(n int) string {
	if n == 1 {
		return ""
	}
	return fmt.Sprintf(" (and %d more)", n-1)
}

// Baseline returns the declared-model evaluation.
func (d *Observatory) Baseline() Baseline {
	return BaselineFor(d.in)
}

// Summary builds the run-level rollup.
func (d *Observatory) Summary() Summary {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Summary{
		Windows:     d.fold.Closed(),
		PhaseShifts: len(d.shifts),
		Violations:  d.fold.ViolationCount(),
	}
	for _, q := range quantities {
		qa := d.quants[q]
		qs := QuantityStatus{Quantity: q, Evaluated: qa.evaluated, MaxRelErr: qa.max,
			Breached: qa.breached, LimitMax: qa.limit}
		if qa.evaluated > 0 {
			qs.MeanRelErr = qa.sum / float64(qa.evaluated)
		}
		s.Quantities = append(s.Quantities, qs)
	}
	for _, kind := range sortedFailKinds(d.fails) {
		fa := d.fails[kind]
		s.MTBF = append(s.MTBF, MTBFStatus{
			Kind: kind, Failures: fa.n,
			MeasuredSecs: float64(fa.lastUS) / float64(fa.n) / 1e6,
		})
	}
	return s
}

func sortedFailKinds(m map[string]*failAcc) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ForecastWindowBytes is the drift-corrected interconnect forecast the
// control plane's burn-rate admission consults: the larger of the last
// window's predicted (staged supply) and measured (shipped) bytes. ok is
// false until a window with remote traffic has closed.
func (d *Observatory) ForecastWindowBytes() (bytes float64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.haveWB {
		return 0, false
	}
	return math.Max(d.lastPredWB, d.lastMeasWB), true
}

// WindowDuration returns the estimator window length.
func (d *Observatory) WindowDuration() time.Duration {
	return d.fold.Width()
}
