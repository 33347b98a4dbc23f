package introspect

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmcp/internal/drift"
	"nvmcp/internal/lineage"
	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
	"nvmcp/internal/slo"
)

// rig builds an observer + attached tracer with a little traffic on the bus.
func rig(t *testing.T) (*obs.Observer, *lineage.Tracer) {
	t.Helper()
	env := sim.NewEnv()
	o := obs.New(env)
	tr := lineage.Attach(o)
	r := o.Recorder(0, "rank0")
	env.Go("emitter", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		r.Emit(obs.EvChunkStaged, "field", 64, map[string]string{"seq": "1"})
		r.Emit(obs.EvChunkCommit, "field", 64, map[string]string{"seq": "1"})
	})
	env.Run()
	return o, tr
}

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestHealthzAndMetrics(t *testing.T) {
	o, tr := rig(t)
	mux := newServer().mux(Source{Obs: o, Lineage: tr, Tool: "test"})
	if rec := get(t, mux, "/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}
	rec := get(t, mux, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "lineage_transitions_total") {
		t.Fatalf("/metrics lacks lineage transition counters:\n%.400s", rec.Body.String())
	}
}

func TestProgressReportsVirtualTimeAndRate(t *testing.T) {
	o, tr := rig(t)
	mux := newServer().mux(Source{Obs: o, Lineage: tr, Tool: "test", Status: func() string { return "done" }})
	var p Progress
	if rec := get(t, mux, "/progress"); json.Unmarshal(rec.Body.Bytes(), &p) != nil {
		t.Fatalf("bad /progress body: %s", rec.Body.String())
	}
	if p.Tool != "test" || p.Status != "done" {
		t.Fatalf("progress identity = %+v", p)
	}
	if p.VirtualUS != 2_000_000 || p.Events != 2 {
		t.Fatalf("progress = %+v, want virtual_us=2000000 events=2", p)
	}
	// Second poll: no new events, so the host-side rate is zero.
	if rec := get(t, mux, "/progress"); json.Unmarshal(rec.Body.Bytes(), &p) != nil {
		t.Fatalf("bad second /progress body: %s", rec.Body.String())
	}
	if p.EventsPerSec != 0 {
		t.Fatalf("idle rate = %g, want 0", p.EventsPerSec)
	}
}

func TestLineageEndpointsServeSlashKeys(t *testing.T) {
	o, tr := rig(t)
	mux := newServer().mux(Source{Obs: o, Lineage: tr, Tool: "test"})
	var index struct {
		Chunks []string `json:"chunks"`
	}
	if rec := get(t, mux, "/lineage"); json.Unmarshal(rec.Body.Bytes(), &index) != nil {
		t.Fatalf("bad /lineage body: %s", rec.Body.String())
	}
	if len(index.Chunks) != 1 || index.Chunks[0] != "rank0/field" {
		t.Fatalf("chunk index = %v", index.Chunks)
	}
	// The chunk key contains a slash; the wildcard route must capture it.
	rec := get(t, mux, "/lineage/rank0/field")
	if rec.Code != 200 {
		t.Fatalf("/lineage/rank0/field = %d %s", rec.Code, rec.Body.String())
	}
	var h lineage.History
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Chunk != "rank0/field" || len(h.Records) != 2 {
		t.Fatalf("history = %+v", h)
	}
	if rec := get(t, mux, "/lineage/rank9/ghost"); rec.Code != 404 {
		t.Fatalf("unknown chunk = %d, want 404", rec.Code)
	}
}

func TestLineageDisabledIs404WithHint(t *testing.T) {
	o, _ := rig(t)
	mux := newServer().mux(Source{Obs: o, Tool: "test"})
	rec := get(t, mux, "/lineage/rank0/field")
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "-lineage") {
		t.Fatalf("disabled lineage = %d %q", rec.Code, rec.Body.String())
	}
}

// Tools that drive many short-lived simulations (nvmcp-bench, nvmcp-perf)
// mount the server with no observer: health, status, and pprof must still
// work, and /metrics must 404 rather than panic.
func TestNilObserverDegradesGracefully(t *testing.T) {
	mux := newServer().mux(Source{Tool: "bench", Status: func() string { return "fig9" }})
	if rec := get(t, mux, "/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	if rec := get(t, mux, "/metrics"); rec.Code != 404 {
		t.Fatalf("/metrics without observer = %d, want 404", rec.Code)
	}
	var p Progress
	if rec := get(t, mux, "/progress"); json.Unmarshal(rec.Body.Bytes(), &p) != nil {
		t.Fatalf("bad /progress body: %s", rec.Body.String())
	}
	if p.Tool != "bench" || p.Status != "fig9" || p.Events != 0 {
		t.Fatalf("progress = %+v", p)
	}
}

func TestPprofIndexIsMounted(t *testing.T) {
	o, _ := rig(t)
	mux := newServer().mux(Source{Obs: o, Tool: "test"})
	if rec := get(t, mux, "/debug/pprof/"); rec.Code != 200 {
		t.Fatalf("/debug/pprof/ = %d", rec.Code)
	}
}

// TestConcurrentPollsWhilePublishing drives handler reads from several
// goroutines while the bus keeps publishing — the -race contract the live
// server depends on.
func TestConcurrentPollsWhilePublishing(t *testing.T) {
	env := sim.NewEnv()
	o := obs.New(env)
	tr := lineage.Attach(o)
	mux := newServer().mux(Source{Obs: o, Lineage: tr, Tool: "test"})
	r := o.Recorder(0, "rank0")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get(t, mux, "/progress")
				get(t, mux, "/metrics")
				get(t, mux, "/lineage")
			}
		}()
	}
	env.Go("emitter", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			r.Emit(obs.EvChunkStaged, "field", 64, map[string]string{"seq": "1"})
			r.Emit(obs.EvChunkCommit, "field", 64, map[string]string{"seq": "1"})
			p.Sleep(time.Millisecond)
		}
	})
	env.Run()
	close(stop)
	wg.Wait()
}

func TestDriftDisabledIs404WithHint(t *testing.T) {
	o, _ := rig(t)
	mux := newServer().mux(Source{Obs: o, Tool: "test"})
	for _, path := range []string{"/drift", "/drift/timeseries"} {
		rec := get(t, mux, path)
		if rec.Code != 404 || !strings.Contains(rec.Body.String(), "-drift") {
			t.Fatalf("%s without observatory = %d %q, want 404 with the -drift hint",
				path, rec.Code, rec.Body.String())
		}
	}
}

func TestDriftEndpoints(t *testing.T) {
	env := sim.NewEnv()
	o := obs.New(env)
	in := drift.Inputs{Ranks: 2, IterTime: 2 * time.Second}
	in.Params.TCompute = 20 * time.Second
	in.Params.IntervalLocal = 4 * time.Second
	in.Params.CkptSize = 64 << 20
	in.Params.NVMBWPerCore = 100e6
	d := drift.Attach(o, drift.Config{Enabled: true}, in)
	r := o.Recorder(0, "rank0")
	env.Go("emitter", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		r.Emit(obs.EvCheckpointCommit, "", 64<<20,
			map[string]string{"dur_us": "700000", "copied": "4"})
		p.Sleep(5 * time.Second) // crosses one 5s window boundary
		r.Emit(obs.EvIteration, "", 0, nil)
	})
	env.Run()
	d.Finalize(7 * time.Second)

	mux := newServer().mux(Source{Obs: o, Drift: d, Tool: "test"})
	rec := get(t, mux, "/drift")
	if rec.Code != 200 {
		t.Fatalf("/drift = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Baseline    drift.Baseline     `json:"baseline"`
		Summary     drift.Summary      `json:"summary"`
		PhaseShifts []drift.PhaseShift `json:"phase_shifts"`
		Violations  []drift.Violation  `json:"violations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad /drift body: %v\n%s", err, rec.Body.String())
	}
	if body.Summary.Windows != 2 {
		t.Fatalf("summary windows = %d, want 1 full + 1 tail", body.Summary.Windows)
	}
	if body.Baseline.TLclUS == 0 {
		t.Fatalf("baseline t_lcl missing: %+v", body.Baseline)
	}

	rec = get(t, mux, "/drift/timeseries")
	if rec.Code != 200 {
		t.Fatalf("/drift/timeseries = %d", rec.Code)
	}
	var ts struct {
		WindowUS int64          `json:"window_us"`
		Windows  []drift.Window `json:"windows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ts); err != nil {
		t.Fatalf("bad timeseries body: %v", err)
	}
	if ts.WindowUS != drift.DefaultWindow.Microseconds() || len(ts.Windows) != 2 {
		t.Fatalf("timeseries = window_us %d, %d windows; want %d, 2",
			ts.WindowUS, len(ts.Windows), drift.DefaultWindow.Microseconds())
	}
	if _, ok := ts.Windows[0].Values["err_"+drift.QtyCkptTime]; !ok {
		t.Fatalf("window 0 lacks the ckpt_time gauge: %v", ts.Windows[0].Values)
	}
}

// TestAllRoutesContentType pins every introspection route to an explicit
// Content-Type: the JSON surfaces must all declare application/json (so
// curl | jq and browser tooling never sniff), the text surfaces text/plain.
func TestAllRoutesContentType(t *testing.T) {
	env := sim.NewEnv()
	o := obs.New(env)
	tr := lineage.Attach(o)
	sr := slo.Attach(o, slo.Config{Enabled: true, Spec: &slo.Spec{Objectives: []slo.Objective{
		{Name: "availability", Direction: slo.AtLeast, Threshold: 0},
	}}})
	d := drift.Attach(o, drift.Config{Enabled: true}, drift.Inputs{Ranks: 1})
	r := o.Recorder(0, "rank0")
	env.Go("emitter", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		r.Emit(obs.EvChunkStaged, "field", 64, map[string]string{"seq": "1"})
		r.Emit(obs.EvChunkCommit, "field", 64, map[string]string{"seq": "1"})
	})
	env.Run()
	sr.Finalize(2 * time.Second)
	d.Finalize(2 * time.Second)
	mux := newServer().mux(Source{Obs: o, Lineage: tr, SLO: sr, Drift: d, Tool: "test"})

	jsonRoutes := []string{
		"/progress",
		"/lineage", "/lineage/rank0/field",
		"/slo", "/slo/timeseries",
		"/drift", "/drift/timeseries",
	}
	for _, path := range jsonRoutes {
		rec := get(t, mux, path)
		if rec.Code != 200 {
			t.Errorf("%s = %d: %s", path, rec.Code, rec.Body.String())
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", path, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s body is not valid JSON: %.200s", path, rec.Body.String())
		}
	}
	for path, want := range map[string]string{
		"/healthz": "text/plain; charset=utf-8",
		"/metrics": "text/plain; version=0.0.4",
	} {
		rec := get(t, mux, path)
		if rec.Code != 200 {
			t.Errorf("%s = %d", path, rec.Code)
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != want {
			t.Errorf("%s Content-Type = %q, want %q", path, ct, want)
		}
	}
}

func TestSLODisabledIs404WithHint(t *testing.T) {
	o, _ := rig(t)
	mux := newServer().mux(Source{Obs: o, Tool: "test"})
	for _, path := range []string{"/slo", "/slo/timeseries"} {
		rec := get(t, mux, path)
		if rec.Code != 404 || !strings.Contains(rec.Body.String(), "-slo") {
			t.Fatalf("%s without recorder = %d %q, want 404 with the -slo hint",
				path, rec.Code, rec.Body.String())
		}
	}
}

func TestSLOEndpoints(t *testing.T) {
	env := sim.NewEnv()
	o := obs.New(env)
	sr := slo.Attach(o, slo.Config{Enabled: true, Spec: &slo.Spec{Objectives: []slo.Objective{
		{Name: "availability", Direction: slo.AtLeast, Threshold: 0.5},
	}}})
	r := o.Recorder(0, "rank0")
	env.Go("emitter", func(p *sim.Proc) {
		p.Sleep(7 * time.Second) // crosses one 5s window boundary
		r.Emit(obs.EvChunkCommit, "field", 64, nil)
	})
	env.Run()
	sr.Finalize(7 * time.Second)

	mux := newServer().mux(Source{Obs: o, SLO: sr, Tool: "test"})
	rec := get(t, mux, "/slo")
	if rec.Code != 200 {
		t.Fatalf("/slo = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/slo Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Summary    slo.Summary           `json:"summary"`
		Objectives []slo.ObjectiveStatus `json:"objectives"`
		Violations []slo.Violation       `json:"violations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad /slo body: %v\n%s", err, rec.Body.String())
	}
	if body.Summary.Windows != 2 {
		t.Fatalf("summary windows = %d, want 1 full + 1 tail", body.Summary.Windows)
	}
	if len(body.Objectives) != 1 || body.Objectives[0].Name != "availability" {
		t.Fatalf("objectives = %+v", body.Objectives)
	}

	rec = get(t, mux, "/slo/timeseries")
	if rec.Code != 200 {
		t.Fatalf("/slo/timeseries = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/slo/timeseries Content-Type = %q, want application/json", ct)
	}
	var ts struct {
		Series  []string     `json:"series"`
		Windows []slo.Window `json:"windows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ts); err != nil {
		t.Fatalf("bad timeseries body: %v", err)
	}
	if len(ts.Series) != len(slo.SeriesNames()) {
		t.Fatalf("series catalog = %v", ts.Series)
	}
	if len(ts.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(ts.Windows))
	}
}
