package drift

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nvmcp/internal/model"
	"nvmcp/internal/obs"
	"nvmcp/internal/report"
	"nvmcp/internal/sim"
)

func testInputs() Inputs {
	return Inputs{
		Params: model.Params{
			TCompute:      100 * time.Second,
			IntervalLocal: 10 * time.Second,
			CkptSize:      100 << 20,
			NVMBWPerCore:  100e6,
		},
		Ranks:    4,
		IterTime: 10 * time.Second,
	}
}

func TestRelErr(t *testing.T) {
	cases := []struct {
		pred, meas, want float64
	}{
		{0, 0, 0},
		{1, 1, 0},
		{1, 0, 1},
		{0, 1, 1},
		{2, 1, 0.5},
		{1, 2, 0.5},
		{-1, 1, 2.0 / 1},
	}
	for _, c := range cases {
		got := relErr(c.pred, c.meas)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("relErr(%g, %g) = %g, want %g", c.pred, c.meas, got, c.want)
		}
	}
	// Symmetric in its arguments, and bounded [0, 1] for same-sign inputs.
	if relErr(3, 7) != relErr(7, 3) {
		t.Errorf("relErr not symmetric")
	}
	if e := relErr(1e-9, 1e9); e < 0 || e > 1 {
		t.Errorf("relErr(1e-9, 1e9) = %g out of [0, 1]", e)
	}
}

func TestSpecValidate(t *testing.T) {
	good := &Spec{
		WindowSecs:  2,
		Limits:      []Limit{{Quantity: QtyCkptTime, MaxRelErr: 0.5, Over: 2}},
		PhaseFactor: 3,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec rejected: %v", err)
	}
	bad := []Spec{
		{WindowSecs: -1},
		{PhaseFactor: 0.5},
		{PhaseWarmup: -1},
		{Limits: []Limit{{Quantity: "bogus", MaxRelErr: 0.5}}},
		{Limits: []Limit{{Quantity: QtyCkptTime, MaxRelErr: 0}}},
		{Limits: []Limit{{Quantity: QtyCkptTime, MaxRelErr: 1.5}}},
		{Limits: []Limit{{Quantity: QtyCkptTime, MaxRelErr: 0.5, Over: -1}}},
		{Limits: []Limit{
			{Quantity: QtyCkptTime, MaxRelErr: 0.5},
			{Quantity: QtyCkptTime, MaxRelErr: 0.3},
		}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad[%d] %+v accepted", i, s)
		}
	}
}

func TestQuantitiesSorted(t *testing.T) {
	qs := quantities
	if len(qs) != 4 {
		t.Fatalf("Quantities() = %v, want 4 entries", qs)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i-1] >= qs[i] {
			t.Fatalf("Quantities() not sorted: %v", qs)
		}
	}
	for _, q := range qs {
		if !knownQuantity(q) {
			t.Errorf("knownQuantity(%q) = false", q)
		}
	}
	if knownQuantity("bogus") {
		t.Errorf("knownQuantity accepted bogus")
	}
}

// TestEstimators drives one window of synthetic telemetry through Observe
// and checks every measured estimator and drift gauge that closes with it.
func TestEstimators(t *testing.T) {
	d := New(Config{Enabled: true, Spec: Spec{WindowSecs: 10}}, testInputs(), nil)
	sec := func(s float64) int64 { return int64(s * 1e6) }
	// 8 chunks staged, 2 re-dirtied -> redirty_rate 0.25.
	for i := 0; i < 8; i++ {
		d.Observe(obs.Event{TUS: sec(1), Type: obs.EvChunkStaged, Bytes: 1 << 20})
	}
	d.Observe(obs.Event{TUS: sec(2), Type: obs.EvChunkReDirtied, Bytes: 1 << 20})
	d.Observe(obs.Event{TUS: sec(2), Type: obs.EvChunkReDirtied, Bytes: 1 << 20})
	// One commit: 100 MB copied in 2 s -> nvm_bw 50 MB/s; the model predicts
	// t_lcl = 100 MB / 100 MB/s = 1 s vs measured 2 s -> err 0.5.
	d.Observe(obs.Event{TUS: sec(3), Type: obs.EvCheckpointCommit, Bytes: 100 << 20,
		Attrs: obs.Attrs{obs.Int("dur_us", 2000000), obs.Int("copied", 6), obs.Int("skipped", 2)}})
	// Iterations for the efficiency estimator.
	d.Observe(obs.Event{TUS: sec(4), Type: obs.EvIteration})
	// Close window 0.
	d.Finalize(10 * time.Second)

	ws := d.Windows()
	if len(ws) != 1 {
		t.Fatalf("got %d windows, want 1", len(ws))
	}
	v := ws[0].Values
	approx := func(key string, want float64) {
		t.Helper()
		got, ok := v[key]
		if !ok {
			t.Fatalf("window missing %q: %v", key, v)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	approx("redirty_rate", 0.25)
	approx("precopy_hit_rate", 0.25) // 2 skipped of 8 touched
	approx("nvm_bw", float64(100<<20)/2)
	approx("ckpt_time_pred_s", float64(100<<20)/100e6)
	approx("ckpt_time_meas_s", 2)
	approx("err_"+QtyCkptTime, relErr(float64(100<<20)/100e6, 2))
	// T_p = I - t_c: predicted 10-1.049 vs measured 10-2.
	predTp := 10 - float64(100<<20)/100e6
	approx("precopy_tp_pred_s", predTp)
	approx("precopy_tp_meas_s", 8)
	approx("err_"+QtyPrecopyTp, relErr(predTp, 8))
	// RemoteOn is false: no window_bytes gauge.
	if _, ok := v["err_"+QtyWindowBytes]; ok {
		t.Errorf("window_bytes gauge present without a remote tier: %v", v)
	}
}

// TestZeroCopyCommitSkipsCkptTime holds the estimator gate: a commit whose
// pre-copy pass already moved every byte measures only fixed overhead the
// model does not predict, so it must not score as drift.
func TestZeroCopyCommitSkipsCkptTime(t *testing.T) {
	d := New(Config{Enabled: true, Spec: Spec{WindowSecs: 10}}, testInputs(), nil)
	d.Observe(obs.Event{TUS: 1e6, Type: obs.EvCheckpointCommit, Bytes: 0,
		Attrs: obs.Attrs{obs.Int("dur_us", 1500), obs.Int("copied", 0), obs.Int("skipped", 8)}})
	d.Finalize(10 * time.Second)
	v := d.Windows()[0].Values
	for _, key := range []string{"err_" + QtyCkptTime, "err_" + QtyPrecopyTp, "nvm_bw"} {
		if _, ok := v[key]; ok {
			t.Errorf("%s evaluated on a zero-copy commit: %v", key, v)
		}
	}
	if hit := v["precopy_hit_rate"]; hit != 1 {
		t.Errorf("precopy_hit_rate = %g, want 1", hit)
	}
}

// TestWindowBytesSteadyState checks the interconnect gauge: the model
// spreads D x ranks evenly over the remote interval, so a window shipping
// exactly that rate reads zero drift and a silent drain window is skipped.
func TestWindowBytesSteadyState(t *testing.T) {
	in := testInputs()
	in.RemoteOn = true
	in.Params.IntervalRemote = 20 * time.Second
	in.Params.RemoteBWPerCore = 50e6
	d := New(Config{Enabled: true, Spec: Spec{WindowSecs: 10}}, in, nil)

	// Steady state: D*ranks / I_rmt * window = 100MB*4/20s*10s = 200 MB.
	want := float64(in.Params.CkptSize) * 4 / 20 * 10
	d.Observe(obs.Event{TUS: 1e6, Type: obs.EvChunkShipped, Bytes: int64(want)})
	// Window 1 has no remote traffic at all -> skipped, not 100% drift.
	d.Observe(obs.Event{TUS: 11e6, Type: obs.EvIteration})
	d.Finalize(20 * time.Second)

	ws := d.Windows()
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if e := ws[0].Values["err_"+QtyWindowBytes]; e != 0 {
		t.Errorf("steady-state drain scored drift %g, want 0 (values %v)", e, ws[0].Values)
	}
	if _, ok := ws[1].Values["err_"+QtyWindowBytes]; ok {
		t.Errorf("silent window scored window_bytes drift: %v", ws[1].Values)
	}

	fc, ok := d.ForecastWindowBytes()
	if !ok {
		t.Fatalf("ForecastWindowBytes not ready after a remote window")
	}
	if math.Abs(fc-want) > 1 {
		t.Errorf("forecast = %g, want ~%g", fc, want)
	}
}

func TestForecastWindowBytesNotReady(t *testing.T) {
	d := New(Config{Enabled: true}, testInputs(), nil)
	if _, ok := d.ForecastWindowBytes(); ok {
		t.Fatalf("forecast ready before any remote window closed")
	}
}

// TestLimitEpisodes holds the violation semantics: Over consecutive
// breached windows fire exactly one violation per episode; a clean window
// resets the streak and re-arms the limit.
func TestLimitEpisodes(t *testing.T) {
	in := testInputs()
	cfg := Config{Enabled: true, Spec: Spec{
		WindowSecs: 10,
		Limits:     []Limit{{Quantity: QtyCkptTime, MaxRelErr: 0.3, Over: 2}},
	}}
	d := New(cfg, in, nil)
	// Predicted t_lcl is 1.049 s (100 MB at 100 MB/s). durUS sets measured.
	commit := func(sec int64, durUS int64) {
		d.Observe(obs.Event{TUS: sec * 1e6, Type: obs.EvCheckpointCommit, Bytes: 100 << 20,
			Attrs: obs.Attrs{obs.Int("dur_us", durUS), obs.Int("copied", 8)}})
	}
	commit(5, 5000000)  // w0 breach (err ~0.79), streak 1: no fire
	commit(15, 5000000) // w1 breach, streak 2: fire
	commit(25, 5000000) // w2 breach, streak 3: already fired, no refire
	commit(35, 1100000) // w3 clean (err ~0.05): reset
	commit(45, 5000000) // w4 breach, streak 1
	commit(55, 5000000) // w5 breach, streak 2: second episode fires
	d.Finalize(60 * time.Second)

	vs := d.Violations()
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2 episodes: %+v", len(vs), vs)
	}
	if vs[0].Window != 1 || vs[1].Window != 5 {
		t.Errorf("violations at windows %d, %d; want 1, 5", vs[0].Window, vs[1].Window)
	}
	for _, v := range vs {
		if v.Quantity != QtyCkptTime || v.Over != 2 || v.MaxRelErr != 0.3 {
			t.Errorf("violation fields off: %+v", v)
		}
	}
	if d.ViolationCount() != 2 {
		t.Errorf("ViolationCount = %d, want 2", d.ViolationCount())
	}
	if err := d.Err(); err == nil {
		t.Errorf("Err() = nil with violations on the log")
	}
	sum := d.Summary()
	for _, q := range sum.Quantities {
		if q.Quantity == QtyCkptTime {
			if q.Evaluated != 6 || q.Breached != 5 {
				t.Errorf("ckpt_time status = %+v, want evaluated 6 breached 5", q)
			}
		}
	}
}

// TestPhaseShiftFiresOnce seeds a steady re-dirty regime, shifts it once,
// and holds the detector to exactly one firing: the shift window itself,
// not the settled post-shift windows.
func TestPhaseShiftFiresOnce(t *testing.T) {
	d := New(Config{Enabled: true, Spec: Spec{WindowSecs: 10}}, testInputs(), nil)
	window := func(idx int64, staged, redirtied int) {
		base := idx * 10e6
		for i := 0; i < staged; i++ {
			d.Observe(obs.Event{TUS: base + 1e6, Type: obs.EvChunkStaged, Bytes: 1 << 20})
		}
		for i := 0; i < redirtied; i++ {
			d.Observe(obs.Event{TUS: base + 2e6, Type: obs.EvChunkReDirtied, Bytes: 1 << 20})
		}
	}
	// Warmup regime: rate 0.1 for 4 windows (warmup is 3).
	for i := int64(0); i < 4; i++ {
		window(i, 10, 1)
	}
	// Shift: rate jumps to 0.5 (factor 5 > 2, abs change 0.4 > guard).
	window(4, 10, 5)
	// Post-shift: the new regime stays at 0.5; no further firing.
	window(5, 10, 5)
	window(6, 10, 5)
	d.Finalize(70 * time.Second)

	shifts := d.PhaseShifts()
	if len(shifts) != 1 {
		t.Fatalf("got %d phase shifts, want exactly 1: %+v", len(shifts), shifts)
	}
	s := shifts[0]
	if s.Window != 4 {
		t.Errorf("shift at window %d, want 4", s.Window)
	}
	if math.Abs(s.From-0.1) > 1e-9 || math.Abs(s.To-0.5) > 1e-9 {
		t.Errorf("shift regime %g -> %g, want 0.1 -> 0.5", s.From, s.To)
	}
	if sum := d.Summary(); sum.PhaseShifts != 1 {
		t.Errorf("Summary.PhaseShifts = %d, want 1", sum.PhaseShifts)
	}
}

// TestPhaseShiftAbsGuard: a tiny regime doubling (0.01 -> 0.02) satisfies
// the factor but not the absolute guard, so it must not fire.
func TestPhaseShiftAbsGuard(t *testing.T) {
	d := New(Config{Enabled: true, Spec: Spec{WindowSecs: 10}}, testInputs(), nil)
	window := func(idx int64, staged, redirtied int) {
		base := idx * 10e6
		for i := 0; i < staged; i++ {
			d.Observe(obs.Event{TUS: base + 1e6, Type: obs.EvChunkStaged})
		}
		for i := 0; i < redirtied; i++ {
			d.Observe(obs.Event{TUS: base + 2e6, Type: obs.EvChunkReDirtied})
		}
	}
	for i := int64(0); i < 4; i++ {
		window(i, 100, 1) // rate 0.01
	}
	window(4, 100, 2) // rate 0.02: x2 but abs change 0.01 < 0.05
	d.Finalize(50 * time.Second)
	if shifts := d.PhaseShifts(); len(shifts) != 0 {
		t.Fatalf("abs guard failed, fired on noise: %+v", shifts)
	}
}

func TestMeasuredMTBF(t *testing.T) {
	d := New(Config{Enabled: true, Spec: Spec{WindowSecs: 10}}, testInputs(), nil)
	// Two soft failures at 20 s and 40 s -> measured local MTBF 20 s.
	d.Observe(obs.Event{TUS: 20e6, Type: obs.EvFailure, Attrs: obs.Attrs{obs.Str("kind", "soft")}})
	d.Observe(obs.Event{TUS: 40e6, Type: obs.EvFailure, Attrs: obs.Attrs{obs.Str("kind", "soft")}})
	// One hard failure at 30 s -> measured remote MTBF 30 s.
	d.Observe(obs.Event{TUS: 30e6, Type: obs.EvFailure, Attrs: obs.Attrs{obs.Str("kind", "node-loss")}})
	d.Observe(obs.Event{TUS: 45e6, Type: obs.EvIteration})
	d.Finalize(50 * time.Second)

	ws := d.Windows()
	last := ws[len(ws)-1].Values
	if got := last["mtbf_local_s"]; math.Abs(got-20) > 1e-9 {
		t.Errorf("mtbf_local_s = %g, want 20", got)
	}
	if got := last["mtbf_remote_s"]; math.Abs(got-30) > 1e-9 {
		t.Errorf("mtbf_remote_s = %g, want 30", got)
	}
	sum := d.Summary()
	if len(sum.MTBF) != 2 {
		t.Fatalf("Summary.MTBF = %+v, want 2 classes", sum.MTBF)
	}
	if sum.MTBF[0].Kind != "node-loss" || sum.MTBF[1].Kind != "soft" {
		t.Errorf("MTBF classes not sorted: %+v", sum.MTBF)
	}
}

// TestMergedStreamMatchesLiveTap holds the single-fold invariant across
// engines: an observatory tapping a serial run's bus and one tapping the
// coordinator that obs.MergeShards publishes two shards' streams through
// produce byte-identical reports.
func TestMergedStreamMatchesLiveTap(t *testing.T) {
	in := testInputs()
	in.RemoteOn = true
	in.Params.IntervalRemote = 20 * time.Second
	cfg := Config{Enabled: true, Spec: Spec{
		WindowSecs: 5,
		Limits:     []Limit{{Quantity: QtyCkptTime, MaxRelErr: 0.3}},
	}}
	type pub struct {
		at    time.Duration
		node  int
		typ   obs.Type
		bytes int64
		attrs []obs.Attr
	}
	// Two shards of two nodes; events tie across shards and nodes, and
	// every node pairs its own remote trigger with its own commit.
	var shards [2][]pub
	for i := 0; i < 12; i++ {
		base := time.Duration(i) * 5 * time.Second
		for s := range shards {
			for n := 2 * s; n < 2*s+2; n++ {
				shards[s] = append(shards[s],
					pub{base + time.Second, n, obs.EvChunkStaged, 4 << 20, nil},
					pub{base + 2*time.Second, n, obs.EvCheckpointCommit, 16 << 20,
						[]obs.Attr{obs.Int("dur_us", 900000), obs.Int("copied", 4), obs.Int("skipped", 1)}},
					pub{base + 2*time.Second, n, obs.EvRemoteTrigger, 0, nil},
					pub{base + 3*time.Second + time.Duration(n)*time.Millisecond, n, obs.EvChunkShipped, 8 << 20, nil},
					pub{base + 4*time.Second + time.Duration(s)*time.Millisecond, n, obs.EvRemoteCommit, 0, nil},
					pub{base + 4*time.Second, n, obs.EvIteration, 0, nil},
				)
			}
		}
	}
	// schedule publishes pubs on o at their virtual times; ties keep their
	// scheduling order.
	schedule := func(env *sim.Env, o *obs.Observer, pubs []pub) {
		for _, p := range pubs {
			rec := o.Recorder(p.node, "rank")
			env.At(p.at, func() { rec.Log(p.typ, "", p.bytes, p.attrs...) })
		}
	}
	const end = 60 * time.Second

	env := sim.NewEnv()
	serial := obs.New(env)
	live := Attach(serial, cfg, in)
	for _, pubs := range shards {
		schedule(env, serial, pubs)
	}
	env.Run()
	live.Finalize(end)

	var parts []*obs.Observer
	for _, pubs := range shards {
		env := sim.NewEnv()
		o := obs.New(env)
		schedule(env, o, pubs)
		env.Run()
		parts = append(parts, o)
	}
	coord := obs.New(sim.NewEnv())
	merged := Attach(coord, cfg, in)
	obs.MergeShards(coord, parts)
	merged.Finalize(end)

	meta := report.Meta{Tool: "test", Scenario: "merge", Seed: 7}
	var a, b bytes.Buffer
	if err := report.WriteJSON(&a, "drift", BuildReport(live, meta)); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteJSON(&b, "drift", BuildReport(merged, meta)); err != nil {
		t.Fatal(err)
	}
	if len(live.Windows()) == 0 {
		t.Fatal("live observatory closed no windows")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("live and merged reports differ:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestReportRoundTrip(t *testing.T) {
	d := New(Config{Enabled: true, Spec: Spec{WindowSecs: 10}}, testInputs(), nil)
	d.Observe(obs.Event{TUS: 1e6, Type: obs.EvCheckpointCommit, Bytes: 100 << 20,
		Attrs: obs.Attrs{obs.Int("dur_us", 1200000), obs.Int("copied", 8)}})
	d.Observe(obs.Event{TUS: 2e6, Type: obs.EvIteration})
	d.Finalize(10 * time.Second)
	rep := BuildReport(d, report.Meta{Tool: "test", Scenario: "roundtrip", Seed: 3})

	path := filepath.Join(t.TempDir(), "drift.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.WriteJSON(f, "drift", rep); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := report.ReadFile[Report]("drift", path, SchemaVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || got.Scenario != "roundtrip" || got.Seed != 3 {
		t.Errorf("roundtrip lost meta: %+v", got)
	}
	if len(got.Windows) != len(rep.Windows) || len(got.Series) == 0 {
		t.Errorf("roundtrip lost rows: %d windows, series %v", len(got.Windows), got.Series)
	}

	// The HTML render carries the section headline and the baseline row.
	var htmlBuf bytes.Buffer
	if err := WriteHTML(&htmlBuf, rep); err != nil {
		t.Fatal(err)
	}
	page := htmlBuf.String()
	for _, want := range []string{"Model drift", "predicted vs measured", "drift (relative error)"} {
		if !bytes.Contains([]byte(page), []byte(want)) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

// TestBaselineMatchesModel pins the baseline row to the §III closed forms.
func TestBaselineMatchesModel(t *testing.T) {
	in := testInputs()
	in.Params.IntervalRemote = 40 * time.Second
	in.Params.RemoteBWPerCore = 25e6
	b := BaselineFor(in)
	if b.TLclUS != in.Params.LocalCkptTime().Microseconds() {
		t.Errorf("TLclUS = %d, want %d", b.TLclUS, in.Params.LocalCkptTime().Microseconds())
	}
	if b.TRmtUS != in.Params.RemoteCkptTime().Microseconds() {
		t.Errorf("TRmtUS = %d, want %d", b.TRmtUS, in.Params.RemoteCkptTime().Microseconds())
	}
	wantTp := model.PreCopyThreshold(in.Params.IntervalLocal, in.Params.CkptSize, in.Params.NVMBWPerCore)
	if b.PrecopyTpUS != wantTp.Microseconds() {
		t.Errorf("PrecopyTpUS = %d, want %d", b.PrecopyTpUS, wantTp.Microseconds())
	}
	if b.Efficiency <= 0 || b.Efficiency >= 1 {
		t.Errorf("Efficiency = %g, want in (0, 1)", b.Efficiency)
	}
}

// TestFinalizeTailOnlyWhenActive pins the observatory's tail rule: the
// partial window left open at Finalize closes only when it saw activity,
// and a window opened exactly at the finish time closes one microsecond
// wide, which then sets the report's virtual end.
func TestFinalizeTailOnlyWhenActive(t *testing.T) {
	cfg := Config{Enabled: true, Spec: Spec{WindowSecs: 5}}
	for _, tc := range []struct {
		name       string
		events     []obs.Event
		now        time.Duration
		wantEndsUS []int64
		wantEndUS  int64
	}{
		{"idle tail", []obs.Event{{TUS: 1e6, Type: obs.EvIteration}}, 7 * time.Second,
			[]int64{5e6}, 7e6},
		{"active tail", []obs.Event{{TUS: 6e6, Type: obs.EvIteration}}, 7 * time.Second,
			[]int64{5e6, 7e6}, 7e6},
		{"activity at the finish time", []obs.Event{{TUS: 5e6, Type: obs.EvIteration}}, 5 * time.Second,
			[]int64{5e6, 5e6 + 1}, 5e6 + 1},
	} {
		d := New(cfg, testInputs(), nil)
		for _, ev := range tc.events {
			d.Observe(ev)
		}
		d.Finalize(tc.now)
		var ends []int64
		for _, w := range d.Windows() {
			ends = append(ends, w.EndUS)
		}
		if !reflect.DeepEqual(ends, tc.wantEndsUS) {
			t.Errorf("%s: window ends %v, want %v", tc.name, ends, tc.wantEndsUS)
		}
		if got := BuildReport(d, report.Meta{}).VirtualEndUS; got != tc.wantEndUS {
			t.Errorf("%s: virtual end %dus, want %dus", tc.name, got, tc.wantEndUS)
		}
	}
}
