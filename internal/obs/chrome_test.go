package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// decodeChrome round-trips WriteChrome output through encoding/json.
func decodeChrome(t *testing.T, r *SpanRecorder) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

func TestWriteChromeRoundTrip(t *testing.T) {
	r := NewSpanRecorder()
	r.Span("iter 0", "compute", 1, 2, 30*time.Second, 10*time.Second,
		map[string]string{"k": "v"})
	r.Instant("remote trigger", "remote", 1, 2, 45*time.Second, nil)

	events := decodeChrome(t, r)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	span := events[0]
	if span.Name != "iter 0" || span.Cat != "compute" || span.Phase != "X" {
		t.Fatalf("span event mangled: %+v", span)
	}
	if span.PID != 1 || span.TID != 2 {
		t.Fatalf("span pid/tid = %d/%d, want 1/2", span.PID, span.TID)
	}
	if span.TS != 30_000_000 || span.Dur != 10_000_000 {
		t.Fatalf("span timestamps not in microseconds: ts=%d dur=%d", span.TS, span.Dur)
	}
	if span.Args["k"] != "v" {
		t.Fatalf("span args lost: %v", span.Args)
	}
	inst := events[1]
	if inst.Phase != "i" || inst.TS != 45_000_000 || inst.Dur != 0 {
		t.Fatalf("instant event mangled: %+v", inst)
	}
}

func TestWriteChromeOrdering(t *testing.T) {
	r := NewSpanRecorder()
	// Record deliberately out of time order; the writer must sort by TS.
	r.Span("late", "c", 0, 0, 20*time.Second, time.Second, nil)
	r.Span("early", "c", 0, 0, 5*time.Second, time.Second, nil)
	r.Instant("mid", "c", 0, 0, 10*time.Second, nil)

	events := decodeChrome(t, r)
	var last int64 = -1
	for _, ev := range events {
		if ev.TS < last {
			t.Fatalf("events not sorted by ts: %d after %d", ev.TS, last)
		}
		last = ev.TS
	}
	if events[0].Name != "early" || events[2].Name != "late" {
		t.Fatalf("unexpected order: %q, %q, %q", events[0].Name, events[1].Name, events[2].Name)
	}
}

func TestWriteChromePIDNaming(t *testing.T) {
	r := NewSpanRecorder()
	r.NameProcess(3, "node3")
	r.NameProcess(0, "node0")
	r.Span("work", "c", 3, 1, time.Second, time.Second, nil)

	events := decodeChrome(t, r)
	var metas []chromeEvent
	for _, ev := range events {
		if ev.Phase == "M" {
			metas = append(metas, ev)
		}
	}
	if len(metas) != 2 {
		t.Fatalf("got %d metadata events, want 2", len(metas))
	}
	// Metadata carries ts 0, so it sorts first, in pid order.
	if metas[0].PID != 0 || metas[0].Args["name"] != "node0" {
		t.Fatalf("first meta = %+v, want pid 0 node0", metas[0])
	}
	if metas[1].PID != 3 || metas[1].Args["name"] != "node3" {
		t.Fatalf("second meta = %+v, want pid 3 node3", metas[1])
	}
	for _, m := range metas {
		if m.Name != "process_name" {
			t.Fatalf("metadata event name = %q, want process_name", m.Name)
		}
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	events := decodeChrome(t, NewSpanRecorder())
	if len(events) != 0 {
		t.Fatalf("empty recorder produced %d events", len(events))
	}
}

func TestSpanRecorderChromeOutput(t *testing.T) {
	r := NewSpanRecorder()
	r.NameProcess(0, "node0")
	r.Span("iter 0", "compute", 0, 1, 2*time.Second, time.Second, nil)
	r.Instant("failure", "failure", 0, 0, 5*time.Second, map[string]string{"kind": "soft"})
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	var sb strings.Builder
	if err := r.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 3 { // span + instant + process_name metadata
		t.Fatalf("events = %d, want 3", len(decoded.TraceEvents))
	}
	var span map[string]any
	for _, e := range decoded.TraceEvents {
		if e["ph"] == "X" {
			span = e
		}
	}
	if span == nil || span["ts"] != float64(2_000_000) || span["dur"] != float64(1_000_000) {
		t.Fatalf("span = %v", span)
	}
	// Events are time-ordered.
	last := float64(-1)
	for _, e := range decoded.TraceEvents {
		ts, _ := e["ts"].(float64)
		if ts < last {
			t.Fatal("events not time-sorted")
		}
		last = ts
	}
}

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	r.Span("x", "c", 0, 0, 0, time.Second, nil) // must not panic
	r.Instant("y", "c", 0, 0, 0, nil)
	r.NameProcess(0, "n")
	if r.Len() != 0 {
		t.Fatal("nil recorder recorded something")
	}
}
