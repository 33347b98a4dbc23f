package slo

import (
	"strings"
	"testing"
	"time"

	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// tick drives virtual time forward through the tap with a neutral event —
// the recorder closes any windows the timestamp has moved past.
func tick(r *Recorder, at time.Duration) {
	r.Observe(obs.Event{TUS: at.Microseconds(), Type: "tick"})
}

func newTestRecorder(spec *Spec) (*Recorder, *obs.Registry) {
	reg := obs.NewRegistry()
	return New(Config{Enabled: true, Spec: spec}, reg), reg
}

func TestWindowedSeriesFromCounters(t *testing.T) {
	r, reg := newTestRecorder(nil)
	reg.Counter("precopy_bytes", nil).Add(80)
	reg.Counter("ckpt_bytes", nil).Add(20)
	reg.Counter("chunks_precopied", nil).Add(10)
	reg.Counter("redirtied_chunks", nil).Add(3)
	reg.Counter("recovery_path", obs.Labels{"tier": "local"}).Add(2)
	reg.Timeline("fabric_bytes", obs.Labels{"class": "ckpt"}).Set(time.Second, 1000)
	tick(r, 5*time.Second) // closes [0, 5s)

	wins := r.Windows()
	if len(wins) != 1 {
		t.Fatalf("windows = %d, want 1", len(wins))
	}
	w := wins[0]
	if w.StartUS != 0 || w.EndUS != 5_000_000 || w.Index != 0 {
		t.Fatalf("window bounds = [%d,%d) idx %d", w.StartUS, w.EndUS, w.Index)
	}
	want := map[string]float64{
		"ckpt_window_bytes": 1000,
		"precopy_hit_rate":  0.8,
		"redirty_rate":      0.3,
		"recovery_local":    2,
		"recovery_remote":   0,
		"recovery_bottom":   0,
		"recovery_lost":     0,
		"degraded_seconds":  0,
		"availability":      1,
	}
	for k, v := range want {
		got, ok := w.Values[k]
		if !ok {
			t.Fatalf("window lacks series %q: %v", k, w.Values)
		}
		if diff := got - v; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s = %g, want %g", k, got, v)
		}
	}
	if _, ok := w.Values["mttr_seconds"]; ok {
		t.Error("mttr_seconds present with no repairs — no-data series must be absent")
	}

	// Second window sees only the delta, not the cumulative totals.
	reg.Counter("precopy_bytes", nil).Add(20)
	reg.Counter("ckpt_bytes", nil).Add(180)
	reg.Timeline("fabric_bytes", obs.Labels{"class": "ckpt"}).Set(7*time.Second, 1500)
	tick(r, 10*time.Second)
	w2 := r.Windows()[1]
	if got := w2.Values["precopy_hit_rate"]; got != 0.1 {
		t.Errorf("window 1 hit rate = %g, want delta-based 0.1", got)
	}
	if got := w2.Values["ckpt_window_bytes"]; got != 500 {
		t.Errorf("window 1 fabric delta = %g, want 500", got)
	}
}

func TestNoDataSeriesAbsentNotZero(t *testing.T) {
	r, _ := newTestRecorder(nil)
	tick(r, 5*time.Second)
	w := r.Windows()[0]
	for _, absent := range []string{"precopy_hit_rate", "redirty_rate", "mttr_seconds"} {
		if _, ok := w.Values[absent]; ok {
			t.Errorf("idle window carries %q — no data must mean an absent key, never zero", absent)
		}
	}
	if w.Values["availability"] != 1 {
		t.Errorf("idle availability = %g, want 1", w.Values["availability"])
	}
}

func TestDegradedIntervalsAndMTTR(t *testing.T) {
	r, _ := newTestRecorder(nil)
	r.Observe(obs.Event{TUS: 1_000_000, Type: obs.EvFailure, Node: 3})
	r.Observe(obs.Event{TUS: 3_000_000, Type: obs.EvRepairDone, Node: 3,
		Attrs: obs.Attrs{obs.Int("mttr_us", 2_000_000)}})
	tick(r, 5*time.Second)
	w := r.Windows()[0]
	if got := w.Values["degraded_seconds"]; got != 2 {
		t.Fatalf("degraded = %gs, want 2s", got)
	}
	if got := w.Values["availability"]; got != 0.6 {
		t.Fatalf("availability = %g, want 0.6", got)
	}
	if got := w.Values["mttr_seconds"]; got != 2 {
		t.Fatalf("mttr = %gs, want 2s", got)
	}

	// An outage spanning a window boundary splits across both windows, and a
	// link flap degrades exactly like a failure.
	r.Observe(obs.Event{TUS: 9_000_000, Type: obs.EvLinkFlap, Node: 1})
	r.Observe(obs.Event{TUS: 11_000_000, Type: obs.EvLinkRestore, Node: 1})
	tick(r, 15*time.Second)
	wins := r.Windows()
	if got := wins[1].Values["degraded_seconds"]; got != 1 {
		t.Fatalf("window 1 degraded = %gs, want 1s (flap tail)", got)
	}
	if got := wins[2].Values["degraded_seconds"]; got != 1 {
		t.Fatalf("window 2 degraded = %gs, want 1s (flap head)", got)
	}
	if _, ok := wins[1].Values["mttr_seconds"]; ok {
		t.Error("window 1 carries mttr from window 0 — per-window repair stats must reset")
	}
}

func TestOpenOutageDegradesEveryWindow(t *testing.T) {
	r, _ := newTestRecorder(nil)
	r.Observe(obs.Event{TUS: 2_000_000, Type: obs.EvFailure, Node: 0})
	tick(r, 15*time.Second)
	wins := r.Windows()
	if got := wins[0].Values["degraded_seconds"]; got != 3 {
		t.Fatalf("window 0 degraded = %gs, want 3s", got)
	}
	for i := 1; i < 3; i++ {
		if got := wins[i].Values["availability"]; got != 0 {
			t.Fatalf("window %d availability = %g, want 0 (outage still open)", i, got)
		}
	}
}

func TestBurnRateToleranceAndEpisodes(t *testing.T) {
	spec := &Spec{Objectives: []Objective{{
		Name: "no-loss", Series: "recovery_lost",
		Direction: AtMost, Threshold: 0, Over: 2, Tolerance: 0.5,
	}}}
	r, reg := newTestRecorder(spec)
	lost := reg.Counter("recovery_path", obs.Labels{"tier": "lost"})

	lost.Add(1)
	tick(r, 5*time.Second)  // violating, 1/1 > 0.5 → breach episode 1
	tick(r, 10*time.Second) // clean, ring [viol, clean] = 1/2 → compliant again
	lost.Add(1)
	tick(r, 15*time.Second) // ring [clean, viol] = 1/2 → still compliant
	lost.Add(1)
	tick(r, 20*time.Second) // ring [viol, viol] = 2/2 → breach episode 2

	st := r.Objectives()[0]
	if st.Episodes != 2 {
		t.Fatalf("episodes = %d, want 2 (breach, recover, breach)", st.Episodes)
	}
	if st.Breached != 2 {
		t.Fatalf("breached windows = %d, want 2", st.Breached)
	}
	if st.Evaluated != 4 {
		t.Fatalf("evaluated = %d, want 4", st.Evaluated)
	}
	if !st.InBreach {
		t.Fatal("objective should end in breach")
	}
	if st.Pass {
		t.Fatal("objective with episodes must not pass")
	}
	viols := r.Violations()
	if len(viols) != 2 {
		t.Fatalf("violations = %d, want one per episode", len(viols))
	}
	if viols[0].Window != 0 || viols[1].Window != 3 {
		t.Fatalf("violation windows = %d, %d; want 0 and 3", viols[0].Window, viols[1].Window)
	}
	if !strings.Contains(viols[1].Detail, "2/2 windows") {
		t.Fatalf("violation detail lacks burn fraction: %q", viols[1].Detail)
	}
}

func TestNoDataWindowLeavesBreachStateUnchanged(t *testing.T) {
	spec := &Spec{Objectives: []Objective{{
		Name: "hit", Series: "precopy_hit_rate", Direction: AtLeast, Threshold: 0.5,
	}}}
	r, reg := newTestRecorder(spec)
	reg.Counter("precopy_bytes", nil).Add(10)
	reg.Counter("ckpt_bytes", nil).Add(90)
	tick(r, 5*time.Second)  // hit rate 0.1 → breach
	tick(r, 10*time.Second) // no traffic → no data → state unchanged
	st := r.Objectives()[0]
	if st.Evaluated != 1 {
		t.Fatalf("evaluated = %d, want 1 (no-data window skipped)", st.Evaluated)
	}
	if !st.InBreach {
		t.Fatal("no-data window must not clear the breach")
	}
	if st.Episodes != 1 {
		t.Fatalf("episodes = %d, want 1 (no re-trigger on no-data)", st.Episodes)
	}
}

func TestFinalObjectives(t *testing.T) {
	spec := &Spec{Objectives: []Objective{
		{Name: "mttr", Series: "mttr_seconds", Direction: AtMost, Threshold: 1, Final: true},
		{Name: "no-loss", Series: "recovery_lost", Direction: AtMost, Threshold: 0, Final: true},
		{Name: "availability", Direction: AtLeast, Threshold: 0.99, Final: true},
	}}
	r, reg := newTestRecorder(spec)
	reg.Counter("recovery_path", obs.Labels{"tier": "lost"}).Add(5)
	r.Finalize(10 * time.Second)

	byName := map[string]ObjectiveStatus{}
	for _, st := range r.Objectives() {
		byName[st.Name] = st
	}
	// No repairs ever → mttr has no data → skipped, still passing.
	if st := byName["mttr"]; st.Evaluated != 0 || !st.Pass || st.FinalValue != nil {
		t.Fatalf("no-data final objective = %+v, want skipped and passing", st)
	}
	if st := byName["no-loss"]; st.Pass || st.FinalValue == nil || *st.FinalValue != 5 {
		t.Fatalf("lost-chunks final objective = %+v, want failing at 5", st)
	}
	if st := byName["availability"]; !st.Pass || *st.FinalValue != 1 {
		t.Fatalf("availability final objective = %+v, want passing at 1", st)
	}
	viols := r.Violations()
	if len(viols) != 1 || viols[0].Window != -1 {
		t.Fatalf("violations = %+v, want one final (window -1) breach", viols)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "no-loss") {
		t.Fatalf("Err() = %v, want the lost-chunks breach", err)
	}
}

func TestFinalizeClosesPartialTail(t *testing.T) {
	r, _ := newTestRecorder(nil)
	r.Finalize(12 * time.Second)
	wins := r.Windows()
	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 2 full + 1 partial", len(wins))
	}
	tail := wins[2]
	if tail.StartUS != 10_000_000 || tail.EndUS != 12_000_000 {
		t.Fatalf("tail window = [%d,%d), want [10s,12s)", tail.StartUS, tail.EndUS)
	}
	// Idempotent, and later events are ignored.
	r.Finalize(40 * time.Second)
	tick(r, 60*time.Second)
	if got := len(r.Windows()); got != 3 {
		t.Fatalf("windows after late events = %d, want still 3", got)
	}
	if sum := r.Summary(); sum.Windows != 3 {
		t.Fatalf("summary windows = %d, want 3", sum.Windows)
	}
}

func TestWindowRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{Enabled: true, MaxWindows: 2}, reg)
	fabric := reg.Timeline("fabric_bytes", obs.Labels{"class": "ckpt"})
	for i := 1; i <= 5; i++ {
		fabric.Set(time.Duration(i)*5*time.Second-time.Second, float64(i)*100)
		tick(r, time.Duration(i)*5*time.Second)
	}
	wins := r.Windows()
	if len(wins) != 2 {
		t.Fatalf("stored windows = %d, want ring cap 2", len(wins))
	}
	if wins[0].Index != 3 || wins[1].Index != 4 {
		t.Fatalf("ring kept windows %d,%d; want the newest 3,4", wins[0].Index, wins[1].Index)
	}
	sum := r.Summary()
	if sum.Windows != 5 || sum.WindowsStored != 2 {
		t.Fatalf("summary = %d total / %d stored, want 5/2", sum.Windows, sum.WindowsStored)
	}
	// The first window's 100-byte burst fell off the ring but the whole-run
	// peak survives eviction.
	if sum.PeakCkptWindowBytes != 100 {
		t.Fatalf("peak = %g, want 100 (aggregates survive eviction)", sum.PeakCkptWindowBytes)
	}
}

func TestViolationRetentionBound(t *testing.T) {
	spec := &Spec{Objectives: []Objective{{
		Name: "no-loss", Series: "recovery_lost", Direction: AtMost, Threshold: 0,
	}}}
	reg := obs.NewRegistry()
	r := New(Config{Enabled: true, Spec: spec, MaxViolations: 1}, reg)
	lost := reg.Counter("recovery_path", obs.Labels{"tier": "lost"})
	for i := 1; i <= 3; i++ {
		lost.Add(1)
		tick(r, time.Duration(i)*5*time.Second)
		tick(r, time.Duration(i)*10*time.Second) // clean window re-arms the episode
	}
	if got := r.ViolationCount(); got != 3 {
		t.Fatalf("violation count = %d, want 3 (counts past retention)", got)
	}
	if got := len(r.Violations()); got != 1 {
		t.Fatalf("retained violations = %d, want bound 1", got)
	}
}

func TestSummaryAggregates(t *testing.T) {
	r, reg := newTestRecorder(nil)
	reg.Counter("precopy_bytes", nil).Add(60)
	reg.Counter("ckpt_bytes", nil).Add(40)
	reg.Counter("chunks_precopied", nil).Add(10)
	reg.Counter("redirtied_chunks", nil).Add(5)
	r.Observe(obs.Event{TUS: 1_000_000, Type: obs.EvFailure, Node: 0})
	r.Observe(obs.Event{TUS: 2_000_000, Type: obs.EvRepairDone, Node: 0,
		Attrs: obs.Attrs{obs.Int("mttr_us", 1000000)}})
	r.Finalize(10 * time.Second)
	sum := r.Summary()
	if sum.PrecopyHitRate != 0.6 {
		t.Errorf("hit rate = %g, want 0.6", sum.PrecopyHitRate)
	}
	if sum.RedirtyRate != 0.5 {
		t.Errorf("redirty = %g, want 0.5", sum.RedirtyRate)
	}
	if sum.MTTRSeconds != 1 {
		t.Errorf("mttr = %g, want 1", sum.MTTRSeconds)
	}
	if sum.DegradedSeconds != 1 {
		t.Errorf("degraded = %g, want 1", sum.DegradedSeconds)
	}
	if sum.Availability != 0.9 {
		t.Errorf("availability = %g, want 0.9", sum.Availability)
	}
}

func TestAttachCoexistsWithOtherTaps(t *testing.T) {
	// The recorder attaches additively: an already-installed tap keeps
	// firing alongside it.
	envEvents := 0
	o := obs.New(sim.NewEnv())
	o.AddEventTap(func(obs.Event) { envEvents++ })
	r := Attach(o, Config{Enabled: true})
	o.Recorder(0, "rank0").Emit("tick", "", 0, nil)
	if envEvents != 1 {
		t.Fatalf("prior tap fired %d times, want 1 — Attach must not replace taps", envEvents)
	}
	if r == nil {
		t.Fatal("Attach returned nil recorder")
	}
}
