package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmcp/internal/sim"
)

func TestRecorderScopesAndRollup(t *testing.T) {
	o := New(sim.NewEnv())
	r0 := o.Recorder(0, "rank0")
	r1 := o.Recorder(1, "rank4")
	r0.Add("ckpt_bytes", 100)
	r0.Add("ckpt_bytes", 50)
	r1.Add("ckpt_bytes", 25)

	reg := o.Registry()
	if got := reg.Counter("ckpt_bytes", nil).Get(); got != 175 {
		t.Fatalf("cluster rollup = %d, want 175", got)
	}
	if got := reg.Counter("ckpt_bytes", Labels{"node": "0", "actor": "rank0"}).Get(); got != 150 {
		t.Fatalf("rank0 scope = %d, want 150", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Emit(EvCheckpointBegin, "", 0, nil)
	r.Add("c", 1)
	r.Log(EvIteration, "", 0, Int("iter", 0))
	r.LogSpan(time.Second, EvIteration, "", 0, Int("iter", 0))
	if r.Observer() != nil || r.Node() != 0 {
		t.Fatal("nil recorder leaked state")
	}
}

// TestLogSpanReachesTapsOnly: an interval event's start and exact publish
// time reach the taps, while the log, Events and the JSONL sink keep what
// Log would have published, byte for byte.
func TestLogSpanReachesTapsOnly(t *testing.T) {
	publish := func(span bool) (tapped Event, events []Event, jsonl string) {
		env := sim.NewEnv()
		o := New(env)
		o.AddEventTap(func(ev Event) { tapped = ev })
		r := o.Recorder(1, "rank3")
		env.Go("emitter", func(p *sim.Proc) {
			p.Sleep(3500 * time.Nanosecond)
			if span {
				r.LogSpan(1200*time.Nanosecond, EvIteration, "", 0, Int("iter", 7))
			} else {
				r.Log(EvIteration, "", 0, Int("iter", 7))
			}
		})
		env.Run()
		var buf bytes.Buffer
		if err := o.WriteEventsJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return tapped, o.Events(), buf.String()
	}
	tapped, events, jsonl := publish(true)
	if tapped.At != 3500*time.Nanosecond || tapped.Start != 1200*time.Nanosecond || tapped.TUS != 3 {
		t.Fatalf("tap saw At=%v Start=%v TUS=%d, want 3.5µs, 1.2µs, 3", tapped.At, tapped.Start, tapped.TUS)
	}
	if events[0].At != 0 || events[0].Start != 0 {
		t.Fatalf("log kept tap-only times: %+v", events[0])
	}
	plainTap, _, plain := publish(false)
	if jsonl != plain {
		t.Fatalf("LogSpan JSONL %q differs from Log's %q", jsonl, plain)
	}
	if plainTap.At != 3500*time.Nanosecond || plainTap.Start != 0 {
		t.Fatalf("Log's tap view: At=%v Start=%v, want 3.5µs and 0", plainTap.At, plainTap.Start)
	}
}

func TestEventStampingAndJSONL(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	r := o.Recorder(2, "rank9")
	env.Go("emitter", func(p *sim.Proc) {
		p.Sleep(3 * time.Second)
		r.Emit(EvChunkStaged, "psi", 4096, map[string]string{"k": "v"})
	})
	env.Run()

	events := o.Events()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.TUS != 3_000_000 {
		t.Fatalf("t_us = %d, want 3000000", ev.TUS)
	}
	if ev.Time() != 3*time.Second {
		t.Fatalf("Time() = %v", ev.Time())
	}
	if ev.Node != 2 || ev.Actor != "rank9" || ev.Chunk != "psi" || ev.Bytes != 4096 {
		t.Fatalf("event scope mangled: %+v", ev)
	}

	var buf bytes.Buffer
	if err := o.WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var decoded Event
		if err := json.Unmarshal(sc.Bytes(), &decoded); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if decoded.Type != EvChunkStaged || decoded.Attrs.Str("k") != "v" {
			t.Fatalf("round trip mangled: %+v", decoded)
		}
		lines++
	}
	if lines != 1 {
		t.Fatalf("JSONL lines = %d, want 1", lines)
	}
	if o.EventCount(EvChunkStaged) != 1 || o.EventCount("") != 1 || o.EventCount(EvRestore) != 0 {
		t.Fatal("EventCount wrong")
	}
}

func TestWritePromFormat(t *testing.T) {
	o := New(sim.NewEnv())
	r := o.Recorder(0, "rank0")
	r.Add("commits", 2)
	o.Registry().Gauge("precopy_hit_rate", Labels{"node": "0", "actor": "rank0"}).Set(0.5)
	o.Registry().Timeline("fabric_bytes", Labels{"class": "ckpt"}).Set(0, 100)

	var buf bytes.Buffer
	if err := o.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE commits_total counter",
		"commits_total 2\n",
		`commits_total{actor="rank0",node="0"} 2`,
		"# TYPE precopy_hit_rate gauge",
		`fabric_bytes_cum{class="ckpt"} 100`,
		`fabric_bytes_steps{class="ckpt"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestFlatten(t *testing.T) {
	o := New(sim.NewEnv())
	r := o.Recorder(1, "rank1")
	r.Add("restores", 3)
	o.Registry().Gauge("redirty_rate", Labels{"node": "1", "actor": "rank1"}).Set(0.25)
	flat := o.Registry().Flatten()
	if flat["restores"] != 3 {
		t.Fatalf("cluster restores = %v", flat["restores"])
	}
	if flat[`restores{actor="rank1",node="1"}`] != 3 {
		t.Fatalf("scoped restores missing: %v", flat)
	}
	if flat[`redirty_rate{actor="rank1",node="1"}`] != 0.25 {
		t.Fatalf("gauge missing: %v", flat)
	}
}

func TestCheckpointRounds(t *testing.T) {
	events := []Event{
		{TUS: 50, Type: EvCheckpointCommit, Node: 0, Actor: "rank0", Bytes: 100,
			Attrs: Attrs{Int("round", 0), Int("copied", 4), Int("skipped", 1), Int("dur_us", 2000000)}},
		{TUS: 40, Type: EvCheckpointCommit, Node: 0, Actor: "rank1", Bytes: 50,
			Attrs: Attrs{Int("round", 0), Int("copied", 2), Int("skipped", 3), Int("dur_us", 1000000)}},
		{TUS: 90, Type: EvCheckpointCommit, Node: 1, Actor: "rank0", Bytes: 10,
			Attrs: Attrs{Int("round", 1), Int("copied", 1), Int("skipped", 0), Int("dur_us", 500000)}},
		{TUS: 95, Type: EvChunkStaged, Node: 1}, // ignored
	}
	rounds := CheckpointRounds(events)
	if len(rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rounds))
	}
	r0 := rounds[0]
	if r0.Round != 0 || r0.Ranks != 2 || r0.BytesCopied != 150 ||
		r0.ChunksCopied != 6 || r0.ChunksSkipped != 4 {
		t.Fatalf("round 0 = %+v", r0)
	}
	if r0.StartUS != 40 {
		t.Fatalf("round 0 start = %d, want earliest 40", r0.StartUS)
	}
	if r0.DurSecs.Mean != 1.5 {
		t.Fatalf("round 0 mean dur = %v, want 1.5", r0.DurSecs.Mean)
	}
	if rounds[1].Round != 1 || rounds[1].Ranks != 1 {
		t.Fatalf("round 1 = %+v", rounds[1])
	}
}

func TestBuildReport(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	r := o.Recorder(0, "rank0")
	env.Go("run", func(p *sim.Proc) {
		p.Sleep(time.Second)
		r.Emit(EvCheckpointCommit, "", 200, map[string]string{
			"round": "0", "copied": "2", "skipped": "0", "dur_us": "100000"})
		r.Add("ckpt_bytes", 200)
	})
	env.Run()

	rep := o.BuildReport("test-tool", map[string]int{"nodes": 2}, nil)
	if rep.Tool != "test-tool" || rep.EventCount != 1 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Checkpoints) != 1 || rep.Checkpoints[0].BytesCopied != 200 {
		t.Fatalf("checkpoints = %+v", rep.Checkpoints)
	}
	if rep.Metrics["ckpt_bytes"] != 200 {
		t.Fatalf("metrics = %v", rep.Metrics)
	}
	if rep.VirtualEndUS != 1_000_000 {
		t.Fatalf("virtual end = %d", rep.VirtualEndUS)
	}

	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded RunReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if decoded.EventCount != 1 {
		t.Fatalf("decoded report = %+v", decoded)
	}
}

// TestConcurrentPublication drives one observer from many host goroutines —
// the experiments package runs whole simulations concurrently, so the bus,
// its taps and the registry must be race-clean (run with -race).
func TestConcurrentPublication(t *testing.T) {
	o := New(sim.NewEnv())
	spans := 0
	o.AddEventTap(func(ev Event) {
		if ev.Type == EvPrecopyCopy && ev.Start == time.Microsecond {
			spans++
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := o.Recorder(g, "worker")
			for i := 0; i < 200; i++ {
				r.Emit(EvChunkStaged, "c", 1, nil)
				r.Add("staged_chunks", 1)
				o.Registry().Gauge("gauge", nil).Set(float64(i))
				o.Registry().Timeline("tl", Labels{"g": "x"}).Set(0, float64(i))
				r.LogSpan(time.Microsecond, EvPrecopyCopy, "c", 1)
			}
		}(g)
	}
	wg.Wait()
	if got := o.EventCount(EvChunkStaged); got != 1600 {
		t.Fatalf("events = %d, want 1600", got)
	}
	if got := o.Registry().Counter("staged_chunks", nil).Get(); got != 1600 {
		t.Fatalf("rollup = %d, want 1600", got)
	}
	if spans != 1600 {
		t.Fatalf("tap saw %d interval events, want 1600", spans)
	}
}

func TestRecorderChildCachesAndScopes(t *testing.T) {
	o := New(sim.NewEnv())
	r := o.Recorder(2, "lineage")
	a := r.Child("remote")
	b := r.Child("remote")
	if a != b {
		t.Fatal("Child is not cached: two calls returned distinct recorders")
	}
	if c := r.Child("local"); c == a {
		t.Fatal("distinct scopes share a child recorder")
	}
	a.Add("lineage_transitions", 3)
	reg := o.Registry()
	got := reg.Counter("lineage_transitions",
		Labels{"node": "2", "actor": "lineage", "scope": "remote"}).Get()
	if got != 3 {
		t.Fatalf("scoped child counter = %d, want 3", got)
	}
	if got := reg.Counter("lineage_transitions", nil).Get(); got != 3 {
		t.Fatalf("cluster rollup = %d, want 3", got)
	}
	var nilRec *Recorder
	if nilRec.Child("x") != nil {
		t.Fatal("nil recorder's Child is not nil")
	}
}

func TestEventTapSeesPublicationOrderAndProgress(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	var tapped []Event
	o.AddEventTap(func(ev Event) { tapped = append(tapped, ev) })
	r := o.Recorder(0, "rank0")
	env.Go("emitter", func(p *sim.Proc) {
		r.Emit(EvChunkStaged, "a", 1, nil)
		p.Sleep(2 * time.Second)
		r.Emit(EvChunkCommit, "a", 1, nil)
	})
	env.Run()
	if len(tapped) != 2 || tapped[0].Type != EvChunkStaged || tapped[1].Type != EvChunkCommit {
		t.Fatalf("tap saw %+v", tapped)
	}
	if tapped[1].TUS != 2_000_000 {
		t.Fatalf("tap event not stamped: TUS = %d", tapped[1].TUS)
	}
	us, events := o.Progress()
	if us != 2_000_000 || events != 2 {
		t.Fatalf("Progress() = (%d, %d), want (2000000, 2)", us, events)
	}
}

func TestAddEventTapCoexistsAndSetReplaces(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	var a, b int
	o.AddEventTap(func(Event) { a++ })
	o.AddEventTap(func(Event) { b++ })
	r := o.Recorder(0, "rank0")
	r.Emit(EvChunkStaged, "x", 1, nil)
	if a != 1 || b != 1 {
		t.Fatalf("additive taps saw (%d, %d) events, want (1, 1)", a, b)
	}
	o.AddEventTap(nil) // ignored
	r.Emit(EvChunkStaged, "y", 1, nil)
	if a != 2 || b != 2 {
		t.Fatalf("after a nil AddEventTap: (%d, %d) events, want (2, 2)", a, b)
	}
}

func TestObsTimelineWindow(t *testing.T) {
	reg := NewRegistry()
	tl := reg.Timeline("fabric_bytes", Labels{"class": "ckpt"})
	tl.Set(1*time.Second, 10)
	tl.Set(3*time.Second, 30)
	tl.Set(9*time.Second, 90)

	times, values := tl.Window(2*time.Second, 5*time.Second)
	if len(times) != 2 {
		t.Fatalf("window steps = %d, want value-at-start + one interior step", len(times))
	}
	if times[0] != 2*time.Second || values[0] != 10 {
		t.Fatalf("window start = (%v, %g), want the value in effect at start (2s, 10)", times[0], values[0])
	}
	if times[1] != 3*time.Second || values[1] != 30 {
		t.Fatalf("interior step = (%v, %g), want (3s, 30)", times[1], values[1])
	}
	if ts, _ := tl.Window(5*time.Second, 5*time.Second); ts != nil {
		t.Fatalf("empty range returned %v, want nil", ts)
	}
}

// benchRegistry is a small registry of labeled and unlabeled scalars.
func benchRegistry() *Registry {
	reg := NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Counter("counter_"+itoa(i), nil).Add(int64(i))
		reg.Counter("labeled", Labels{"node": itoa(i)}).Add(int64(i))
		reg.Gauge("gauge_"+itoa(i), nil).Set(float64(i))
	}
	return reg
}

func BenchmarkRegistryFlatten(b *testing.B) {
	reg := benchRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = reg.Flatten()
	}
}
