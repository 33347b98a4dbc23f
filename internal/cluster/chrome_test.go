package cluster

import (
	"reflect"
	"testing"
	"time"

	"nvmcp/internal/obs"
)

// spanTap is a Chrome trace tap for one node with two ranks that checkpoint
// every second iteration, fed synthetic events only.
func spanTap() *chromeTap {
	return newChromeTap(Config{Nodes: 1, LocalEvery: 2}, []int{0, 2}, map[int]string{})
}

// tapEvent builds the event a tap sees: published at the exact time end,
// closing an interval begun at start.
func tapEvent(t obs.Type, actor, chunk string, start, end time.Duration, attrs ...obs.Attr) obs.Event {
	return obs.Event{TUS: end.Microseconds(), Type: t, Actor: actor, Chunk: chunk,
		Attrs: attrs, At: end, Start: start}
}

func iteration(actor string, iter int64, start, end time.Duration) obs.Event {
	return tapEvent(obs.EvIteration, actor, "", start, end, obs.Int("iter", iter))
}

func precopyCopy(actor string, start, end time.Duration) obs.Event {
	return tapEvent(obs.EvPrecopyCopy, actor, "psi", start, end)
}

// quiesceRows returns the tap's quiesce spans.
func quiesceRows(tap *chromeTap) []obs.ChromeEvent {
	var out []obs.ChromeEvent
	for _, r := range tap.rows {
		if r.Name == "quiesce" {
			out = append(out, r)
		}
	}
	return out
}

// A pre-copy still copying when a mid-interval iteration ends holds nobody
// back: only a checkpoint iteration quiesces the engine.
func TestChromeQuiesceNotAfterMidIntervalIteration(t *testing.T) {
	tap := spanTap()
	tap.observe(iteration("rank1", 0, 0, 10*time.Second))
	tap.observe(precopyCopy("rank1", 9*time.Second, 11*time.Second))
	if q := quiesceRows(tap); len(q) != 0 {
		t.Fatalf("mid-interval iteration drew quiesce spans %+v", q)
	}
	if len(tap.rows) != 2 {
		t.Fatalf("rows = %+v, want the iteration and the copy", tap.rows)
	}
}

// A copy straddling a checkpoint iteration's end draws exactly one quiesce
// span, [iteration end, copy end], in the rank's lane right after the copy.
func TestChromeQuiesceSpansCheckpointIterationToCopyEnd(t *testing.T) {
	tap := spanTap()
	end := 20*time.Second + 700 // the iteration ends 0.7 µs past a boundary
	tap.observe(iteration("rank1", 1, 10*time.Second, end))
	tap.observe(precopyCopy("rank1", 19*time.Second, 21*time.Second+300))
	q := quiesceRows(tap)
	if len(q) != 1 {
		t.Fatalf("quiesce spans = %+v, want one", q)
	}
	want := obs.ChromeEvent{Name: "quiesce", Cat: "ckpt", Phase: "X",
		TS: 20_000_000, Dur: 999_999, PID: 0, TID: 1}
	if !reflect.DeepEqual(q[0], want) {
		t.Fatalf("quiesce = %+v, want %+v", q[0], want)
	}
	if n := len(tap.rows); tap.rows[n-1].Name != "quiesce" || tap.rows[n-2].Name != "precopy psi" {
		t.Fatalf("quiesce must follow its copy's span: %+v", tap.rows)
	}
	// The other rank's copy and a copy that starts after the iteration end
	// hold no wait of rank1's.
	tap.observe(precopyCopy("rank0", 19*time.Second, 22*time.Second))
	tap.observe(precopyCopy("rank1", 21*time.Second, 23*time.Second))
	if q := quiesceRows(tap); len(q) != 1 {
		t.Fatalf("quiesce spans = %+v, want still one", q)
	}
}

// A failure kills every rank, so a copy that lands after it ends no
// quiesce, and neither does one after the rank's next iteration.
func TestChromeQuiesceClearedByFailureAndNextIteration(t *testing.T) {
	tap := spanTap()
	tap.observe(iteration("rank0", 1, 10*time.Second, 20*time.Second))
	tap.observe(iteration("rank1", 1, 10*time.Second, 20*time.Second))
	tap.observe(tapEvent(obs.EvFailure, "cluster", "", 0, 20*time.Second+500, obs.Str("kind", "soft")))
	tap.observe(precopyCopy("rank0", 19*time.Second, 21*time.Second))
	if q := quiesceRows(tap); len(q) != 0 {
		t.Fatalf("copy after a failure drew quiesce spans %+v", q)
	}
	if r := tap.rows[2]; r.Name != "soft failure" || r.Phase != "i" || r.TS != 20_000_000 {
		t.Fatalf("failure instant = %+v", r)
	}

	tap = spanTap()
	tap.observe(iteration("rank1", 1, 10*time.Second, 20*time.Second))
	tap.observe(iteration("rank1", 2, 20*time.Second, 30*time.Second))
	tap.observe(precopyCopy("rank1", 19*time.Second, 31*time.Second))
	if q := quiesceRows(tap); len(q) != 0 {
		t.Fatalf("copy after the next iteration drew quiesce spans %+v", q)
	}
}

// Span ends round down to whole microseconds separately: ts is the start's
// microsecond and dur the nanosecond length's, never the difference of the
// rounded ends.
func TestChromeSpanRoundsStartAndLength(t *testing.T) {
	tap := spanTap()
	tap.observe(iteration("rank0", 0, 1900, 3100)) // 1.9 µs → 3.1 µs
	tap.observe(precopyCopy("rank1", 999, 1000))   // 1 ns across a boundary
	tap.observe(tapEvent(obs.EvChunkShipped, "helper0", "rank0/psi", 2500, 2500+4*time.Microsecond))
	want := []struct {
		name    string
		ts, dur int64
		tid     int
	}{{"iter 0", 1, 1, 0}, {"precopy psi", 0, 0, 1}, {"ship rank0/psi", 2, 4, helperLane}}
	if len(tap.rows) != len(want) {
		t.Fatalf("rows = %+v", tap.rows)
	}
	for i, w := range want {
		r := tap.rows[i]
		if r.Name != w.name || r.TS != w.ts || r.Dur != w.dur || r.TID != w.tid {
			t.Errorf("row %d = %+v, want %s ts=%d dur=%d tid=%d", i, r, w.name, w.ts, w.dur, w.tid)
		}
	}
}

// ChromeTrace attaches once: a second call returns the same trace rather
// than a second tap that would write every row twice, and a call after
// Execute, when the events are gone by, panics instead of tracing nothing.
func TestChromeTraceAttachesOnceBeforeExecute(t *testing.T) {
	c, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr := c.ChromeTrace()
	if again := c.ChromeTrace(); again != tr || len(tr.taps) != 1 {
		t.Fatalf("second ChromeTrace: same trace %v, %d taps, want true and 1", again == tr, len(tr.taps))
	}
	if _, err := c.Execute(); err != nil {
		t.Fatal(err)
	}
	c2, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Execute(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ChromeTrace after Execute did not panic")
		}
	}()
	c2.ChromeTrace()
}
