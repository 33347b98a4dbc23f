package slo

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"nvmcp/internal/obs"
)

// Window is one closed flight-recorder window.
type Window = obs.Window

// interval is one degraded span of virtual time; end < 0 while still open.
type interval struct {
	start, end time.Duration
}

// tally is the counter side of the flight series, folded from events: the
// pre-copy and checkpoint bytes (Figure 9's hit rate), the chunks pre-copied
// and re-dirtied (its re-dirty rate), and the chunks each recovery tier
// served. The recorder keeps one for the open window and one for the run.
type tally struct {
	precopyBytes int64
	ckptBytes    int64
	precopied    int64
	redirtied    int64
	recovery     [4]int64 // indexed like tierNames
}

// tierNames orders the recovery tiers in tally.recovery.
var tierNames = [4]string{"local", "remote", "bottom", "lost"}

// add folds one event into the tally.
func (t *tally) add(ev obs.Event) {
	switch ev.Type {
	case obs.EvPrecopyCopy:
		t.precopyBytes += ev.Bytes
		t.precopied++
	case obs.EvCheckpointCommit:
		t.ckptBytes += ev.Bytes
	case obs.EvChunkReDirtied:
		t.redirtied++
	case obs.EvRestore:
		// A local restore, eager or lazy; adopted remote and bottom copies
		// count through their chunk_recovered verdicts.
		if src := ev.Attrs.Str("source"); src == "local" || src == "lazy" {
			t.recovery[0]++
		}
	case obs.EvChunkRecovered:
		tier := ev.Attrs.Str("tier")
		for i := 1; i < len(tierNames); i++ {
			if tierNames[i] == tier {
				t.recovery[i]++
			}
		}
	}
}

// hitRate is the pre-copy share of the bytes staged to NVM; ok=false when
// nothing was staged.
func (t *tally) hitRate() (float64, bool) {
	if t.precopyBytes+t.ckptBytes <= 0 {
		return 0, false
	}
	return float64(t.precopyBytes) / float64(t.precopyBytes+t.ckptBytes), true
}

// redirtyRate is the share of pre-copied chunks re-dirtied before their
// checkpoint; ok=false when nothing was pre-copied.
func (t *tally) redirtyRate() (float64, bool) {
	if t.precopied <= 0 {
		return 0, false
	}
	return float64(t.redirtied) / float64(t.precopied), true
}

// objState is the online evaluator state for one objective.
type objState struct {
	obj Objective
	// h holds the objective's last horizon() window verdicts.
	h obs.Horizon

	evaluated int // windows with data for this objective's series
	breached  int // windows judged breaching
	episodes  int

	lastValue  float64
	hasLast    bool
	finalValue float64
	hasFinal   bool
	finalPass  bool
}

// ObjectiveStatus is one objective's externally visible evaluation state —
// what the introspection endpoints, the run report, and the diff consume.
type ObjectiveStatus struct {
	Name      string  `json:"name"`
	Series    string  `json:"series"`
	Direction string  `json:"direction"`
	Threshold float64 `json:"threshold"`
	Over      int     `json:"over"`
	Tolerance float64 `json:"tolerance"`
	Final     bool    `json:"final"`
	// Evaluated counts windows that had data for the series; Breached counts
	// those judged breaching; Episodes counts compliant→breach transitions.
	Evaluated int  `json:"windows_evaluated"`
	Breached  int  `json:"windows_breached"`
	Episodes  int  `json:"breach_episodes"`
	InBreach  bool `json:"in_breach"`
	// LastValue is the most recent windowed value; FinalValue the whole-run
	// aggregate (set at Finalize). Nil means no data.
	LastValue  *float64 `json:"last_value,omitempty"`
	FinalValue *float64 `json:"final_value,omitempty"`
	// Pass is the objective's overall verdict: no breach episodes and (for
	// final objectives) the end-of-run aggregate inside the bound.
	Pass bool `json:"pass"`
}

// Summary is the recorder's end-of-run rollup, embedded into the RunReport
// and the cluster result table.
type Summary struct {
	WindowUS       int64             `json:"window_us"`
	Windows        int               `json:"windows"`
	WindowsStored  int               `json:"windows_stored"`
	Objectives     []ObjectiveStatus `json:"objectives,omitempty"`
	ViolationCount int               `json:"violation_count"`
	// Whole-run aggregates of the flight series.
	PeakCkptWindowBytes float64 `json:"peak_ckpt_window_bytes"`
	PrecopyHitRate      float64 `json:"precopy_hit_rate"`
	RedirtyRate         float64 `json:"redirty_rate"`
	MTTRSeconds         float64 `json:"mttr_seconds"`
	DegradedSeconds     float64 `json:"degraded_seconds"`
	Availability        float64 `json:"availability"`
}

// Recorder is the virtual-time flight recorder: an event tap whose
// obs.WindowFold closes fixed-width windows lazily as the bus's virtual
// clock crosses their boundaries, folding the events into windowed series
// and evaluating the SLO spec online. The one series not folded from events
// is the checkpoint traffic per window, read from the fabric timeline by
// virtual time, which a shard merge sums exactly.
//
// All state is mutex-guarded so the introspection HTTP handlers can read
// mid-run, exactly like the lineage tracer. The tap runs under the
// observer's mutex and only reads the fabric timeline (observer.mu →
// timeline.mu is the established lock order); it never publishes events
// back.
type Recorder struct {
	mu   sync.Mutex
	cfg  Config
	fold *obs.WindowFold[Violation]

	// win and run fold the counter series for the open window and the run.
	win, run tally

	fabric *obs.Timeline
	// fabricStart is the fabric timeline's value at the open window's start.
	fabricStart float64

	// degraded intervals: failures (keyed "fail:<node>" — at most one outage
	// at a time in practice, but keyed defensively) and link flaps (keyed by
	// node). Closed intervals are pruned once fully behind the open window.
	open      map[string]time.Duration
	closedIvs []interval

	// per-window repair stats, reset at close; run-level accumulators.
	repairSumUS int64
	repairN     int
	mttrSumUS   int64
	mttrN       int

	// run-level aggregates, maintained incrementally so ring eviction loses
	// no information.
	peakCkptWindow float64
	degradedTotal  time.Duration

	objs []objState
}

// New builds a recorder that reads checkpoint traffic from reg's fabric
// timeline. Tests drive it directly with synthetic events; production code
// uses Attach.
func New(cfg Config, reg *obs.Registry) *Recorder {
	r := &Recorder{
		cfg:    cfg,
		fabric: reg.Timeline("fabric_bytes", obs.Labels{"class": "ckpt"}),
		open:   make(map[string]time.Duration),
	}
	r.fold = obs.NewWindowFold[Violation](obs.WindowWidth, r.closeWindow)
	if cfg.Spec != nil {
		for _, o := range cfg.Spec.Objectives {
			r.objs = append(r.objs, objState{
				obj:       o,
				h:         obs.NewHorizon(o.horizon()),
				finalPass: true,
			})
		}
	}
	return r
}

// Attach builds a recorder and registers it as an (additive) event tap on
// the observer, alongside any lineage tracer.
func Attach(o *obs.Observer, cfg Config) *Recorder {
	r := New(cfg, o.Registry())
	o.AddEventTap(r.Observe)
	return r
}

// Observe is the event tap. It first closes any windows the event's virtual
// time has moved past, then folds the event into the open window's state.
func (r *Recorder) Observe(ev obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := ev.Time()
	if !r.fold.Advance(t) {
		return
	}
	switch ev.Type {
	case obs.EvFailure:
		key := "fail:" + strconv.Itoa(ev.Node)
		if _, dup := r.open[key]; !dup {
			r.open[key] = t
		}
	case obs.EvRepairDone:
		r.closeInterval("fail:"+strconv.Itoa(ev.Node), t)
		if us, ok := ev.Attrs.Int("mttr_us"); ok {
			r.repairSumUS += us
			r.repairN++
			r.mttrSumUS += us
			r.mttrN++
		}
	case obs.EvLinkFlap:
		key := "flap:" + strconv.Itoa(ev.Node)
		if _, dup := r.open[key]; !dup {
			r.open[key] = t
		}
	case obs.EvLinkRestore:
		r.closeInterval("flap:"+strconv.Itoa(ev.Node), t)
	default:
		r.win.add(ev)
		r.run.add(ev)
	}
}

// closeInterval moves an open degraded interval to the closed list.
func (r *Recorder) closeInterval(key string, t time.Duration) {
	start, ok := r.open[key]
	if !ok {
		return
	}
	delete(r.open, key)
	r.closedIvs = append(r.closedIvs, interval{start: start, end: t})
}

// degradedIn sums the overlap of all degraded intervals with [s, e), and
// prunes closed intervals that can no longer overlap future windows.
func (r *Recorder) degradedIn(s, e time.Duration) time.Duration {
	var sum time.Duration
	kept := r.closedIvs[:0]
	for _, iv := range r.closedIvs {
		sum += overlap(iv.start, iv.end, s, e)
		if iv.end > e {
			kept = append(kept, iv)
		}
	}
	r.closedIvs = kept
	for _, start := range r.open {
		sum += overlap(start, e, s, e)
	}
	return sum
}

func overlap(a0, a1, b0, b1 time.Duration) time.Duration {
	if a0 < b0 {
		a0 = b0
	}
	if a1 > b1 {
		a1 = b1
	}
	if a1 <= a0 {
		return 0
	}
	return a1 - a0
}

// closeWindow is the fold's close function for [start, end): it computes
// the windowed series values, evaluates the per-window objectives, and
// rolls the aggregates forward.
//
// An event belongs to the window its virtual time falls in; the fold
// closes a window before it folds the first event past its end. The fabric
// reading is the timeline's value at end.
func (r *Recorder) closeWindow(w *Window, start, end time.Duration) {
	width := end - start
	fabric := r.fabric.At(end)

	vals := make(map[string]float64, 10)
	vals["ckpt_window_bytes"] = fabric - r.fabricStart
	if v, ok := r.win.hitRate(); ok {
		vals["precopy_hit_rate"] = v
	}
	if v, ok := r.win.redirtyRate(); ok {
		vals["redirty_rate"] = v
	}
	for i, tier := range tierNames {
		vals["recovery_"+tier] = float64(r.win.recovery[i])
	}
	if r.repairN > 0 {
		vals["mttr_seconds"] = float64(r.repairSumUS) / 1e6 / float64(r.repairN)
	}
	degraded := r.degradedIn(start, end)
	vals["degraded_seconds"] = degraded.Seconds()
	vals["availability"] = 1 - float64(degraded)/float64(width)

	w.Values = vals
	r.evaluateWindow(w)

	if v := vals["ckpt_window_bytes"]; v > r.peakCkptWindow {
		r.peakCkptWindow = v
	}
	r.degradedTotal += degraded
	r.win, r.fabricStart = tally{}, fabric
	r.repairSumUS, r.repairN = 0, 0
}

// evaluateWindow feeds the window's values to every non-final objective.
func (r *Recorder) evaluateWindow(w *Window) {
	for i := range r.objs {
		st := &r.objs[i]
		if st.obj.Final {
			continue
		}
		v, ok := w.Values[st.obj.SeriesName()]
		if !ok {
			continue // no data this window; breach state unchanged
		}
		st.lastValue, st.hasLast = v, true
		st.evaluated++
		st.h.Push(st.obj.violated(v))
		bad, n := st.h.Bad(), st.h.Filled()
		breach := float64(bad)/float64(n) > st.obj.Tolerance+1e-9
		if breach {
			st.breached++
		}
		if st.h.Judge(breach) {
			st.episodes++
			r.fold.Violate(Violation{
				TUS:       w.EndUS,
				Window:    w.Index,
				Objective: st.obj.Name,
				Series:    st.obj.SeriesName(),
				Value:     v,
				Threshold: st.obj.Threshold,
				Direction: st.obj.Direction,
				Detail: fmt.Sprintf("window %d [%gs,%gs): %s = %g %s threshold %g (%d/%d windows violating, tolerance %g)",
					w.Index, float64(w.StartUS)/1e6, float64(w.EndUS)/1e6,
					st.obj.SeriesName(), v, violatedWord(st.obj.Direction), st.obj.Threshold,
					bad, n, st.obj.Tolerance),
			})
		}
	}
}

func violatedWord(direction string) string {
	if direction == AtLeast {
		return "below"
	}
	return "above"
}

// finalAggregate computes the whole-run value of a series for final
// objectives. ok=false means the series never had data (e.g. MTTR with no
// failures), which skips the objective rather than violating it.
func (r *Recorder) finalAggregate(series string, now time.Duration) (float64, bool) {
	switch series {
	case "ckpt_window_bytes":
		return r.peakCkptWindow, true
	case "precopy_hit_rate":
		return r.run.hitRate()
	case "redirty_rate":
		return r.run.redirtyRate()
	case "recovery_local":
		return float64(r.run.recovery[0]), true
	case "recovery_remote":
		return float64(r.run.recovery[1]), true
	case "recovery_bottom":
		return float64(r.run.recovery[2]), true
	case "recovery_lost":
		return float64(r.run.recovery[3]), true
	case "mttr_seconds":
		if r.mttrN == 0 {
			return 0, false
		}
		return float64(r.mttrSumUS) / 1e6 / float64(r.mttrN), true
	case "degraded_seconds":
		return r.degradedTotal.Seconds(), true
	case "availability":
		if now <= 0 {
			return 0, false
		}
		return 1 - float64(r.degradedTotal)/float64(now), true
	}
	return 0, false
}

// Finalize seals the recorder at virtual time now: closes every complete
// window, closes the partial tail window if any time remains, and evaluates
// the final (whole-run) objectives. Idempotent; later Observe calls are
// ignored.
func (r *Recorder) Finalize(now time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.fold.Finish(now, now) {
		return
	}
	for i := range r.objs {
		st := &r.objs[i]
		if !st.obj.Final {
			continue
		}
		v, ok := r.finalAggregate(st.obj.SeriesName(), now)
		if !ok {
			continue
		}
		st.finalValue, st.hasFinal = v, true
		st.evaluated++
		if st.obj.violated(v) {
			st.finalPass = false
			st.breached++
			st.episodes++
			st.h.Judge(true)
			r.fold.Violate(Violation{
				TUS:       now.Microseconds(),
				Window:    -1,
				Objective: st.obj.Name,
				Series:    st.obj.SeriesName(),
				Value:     v,
				Threshold: st.obj.Threshold,
				Direction: st.obj.Direction,
				Detail: fmt.Sprintf("final: %s = %g %s threshold %g",
					st.obj.SeriesName(), v, violatedWord(st.obj.Direction), st.obj.Threshold),
			})
		}
	}
}

// status renders one objective's external state. Caller holds r.mu.
func (st *objState) status() ObjectiveStatus {
	s := ObjectiveStatus{
		Name:      st.obj.Name,
		Series:    st.obj.SeriesName(),
		Direction: st.obj.Direction,
		Threshold: st.obj.Threshold,
		Over:      st.obj.horizon(),
		Tolerance: st.obj.Tolerance,
		Final:     st.obj.Final,
		Evaluated: st.evaluated,
		Breached:  st.breached,
		Episodes:  st.episodes,
		InBreach:  st.h.InBreach(),
		Pass:      st.episodes == 0 && st.finalPass,
	}
	if st.hasLast {
		v := st.lastValue
		s.LastValue = &v
	}
	if st.hasFinal {
		v := st.finalValue
		s.FinalValue = &v
	}
	return s
}

// Objectives returns every objective's current evaluation state.
func (r *Recorder) Objectives() []ObjectiveStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(r.objs))
	for i := range r.objs {
		out = append(out, r.objs[i].status())
	}
	return out
}

// Windows returns the retained closed windows, oldest first.
func (r *Recorder) Windows() []Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fold.Windows()
}

// Violations returns the retained breach episodes (never nil, so JSON
// consumers of the introspection endpoints see [] rather than null).
func (r *Recorder) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fold.Violations()
}

// ViolationCount returns the total breach episodes, including any past the
// retention bound.
func (r *Recorder) ViolationCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fold.ViolationCount()
}

// Err returns nil when every objective holds, or an error describing the
// first breach — the strict-mode failure, mirroring lineage.Err.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.fold.ViolationCount()
	if n == 0 {
		return nil
	}
	return fmt.Errorf("slo: %d objective breach(es); first: %s", n, r.fold.Violations()[0])
}

// Summary returns the end-of-run rollup. Call after Finalize for final
// objective values; safe (and race-free) mid-run for live introspection.
func (r *Recorder) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{
		WindowUS:            r.fold.Width().Microseconds(),
		Windows:             r.fold.Closed(),
		WindowsStored:       r.fold.Stored(),
		ViolationCount:      r.fold.ViolationCount(),
		PeakCkptWindowBytes: r.peakCkptWindow,
	}
	for i := range r.objs {
		s.Objectives = append(s.Objectives, r.objs[i].status())
	}
	now := r.fold.End()
	// The rollup is the final objectives' whole-run aggregates; a series
	// with no data reads 0, except availability, which reads 1.
	s.PrecopyHitRate, _ = r.finalAggregate("precopy_hit_rate", now)
	s.RedirtyRate, _ = r.finalAggregate("redirty_rate", now)
	s.MTTRSeconds, _ = r.finalAggregate("mttr_seconds", now)
	s.DegradedSeconds, _ = r.finalAggregate("degraded_seconds", now)
	s.Availability = 1
	if v, ok := r.finalAggregate("availability", now); ok {
		s.Availability = v
	}
	return s
}

// Strict reports whether the recorder should fail the run on breach.
func (r *Recorder) Strict() bool { return r.cfg.Strict }

// MaxBurn is the live error-budget burn rate: the highest, across windowed
// objectives, of the violating share of the objective's consecutive-breach
// horizon ring. 0 means every objective is clean over its horizon; 1 means
// some objective's whole horizon is violating (a violation is firing). The
// control plane's burn-rate admission holds new work while running jobs
// burn budget.
func (r *Recorder) MaxBurn() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	burn := 0.0
	for i := range r.objs {
		st := &r.objs[i]
		if st.obj.Final {
			continue
		}
		if b := float64(st.h.Bad()) / float64(st.h.Len()); b > burn {
			burn = b
		}
	}
	return burn
}
