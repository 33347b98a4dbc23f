package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// decodeChrome round-trips WriteChrome output through encoding/json.
func decodeChrome(t *testing.T, rows []ChromeEvent, names map[int]string) []ChromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rows, names); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

func TestWriteChromeRoundTrip(t *testing.T) {
	rows := []ChromeEvent{
		{Name: "iter 0", Cat: "compute", Phase: "X", TS: 30_000_000, Dur: 10_000_000,
			PID: 1, TID: 2, Args: map[string]string{"k": "v"}},
		{Name: "remote trigger", Cat: "remote", Phase: "i", TS: 45_000_000, PID: 1, TID: 2},
	}
	events := decodeChrome(t, rows, nil)
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
		t.Fatalf("span timestamps mangled: ts=%d dur=%d", span.TS, span.Dur)
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
	// Recorded deliberately out of time order; the writer must sort by TS
	// and leave the caller's rows as they were.
	rows := []ChromeEvent{
		{Name: "late", Cat: "c", Phase: "X", TS: 20_000_000, Dur: 1_000_000},
		{Name: "early", Cat: "c", Phase: "X", TS: 5_000_000, Dur: 1_000_000},
		{Name: "mid", Cat: "c", Phase: "i", TS: 10_000_000},
	}
	events := decodeChrome(t, rows, nil)
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
	if rows[0].Name != "late" {
		t.Fatal("WriteChrome reordered the caller's rows")
	}
}

func TestWriteChromePIDNaming(t *testing.T) {
	rows := []ChromeEvent{{Name: "work", Cat: "c", Phase: "X", TS: 1_000_000, Dur: 1_000_000, PID: 3, TID: 1}}
	events := decodeChrome(t, rows, map[int]string{3: "node3", 0: "node0"})
	var metas []ChromeEvent
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
	events := decodeChrome(t, nil, nil)
	if len(events) != 0 {
		t.Fatalf("empty trace produced %d events", len(events))
	}
}

// TestWriteChromeOutput pins the wire form: one object per row, span
// timestamps and durations as JSON numbers, metadata rows last among equal
// timestamps, and the whole array time-ordered.
func TestWriteChromeOutput(t *testing.T) {
	rows := []ChromeEvent{
		{Name: "iter 0", Cat: "compute", Phase: "X", TS: 2_000_000, Dur: 1_000_000, PID: 0, TID: 1},
		{Name: "failure", Cat: "failure", Phase: "i", TS: 5_000_000, Args: map[string]string{"kind": "soft"}},
		{Name: "start", Cat: "c", Phase: "i", TS: 0, PID: 0, TID: 1},
	}
	var sb strings.Builder
	if err := WriteChrome(&sb, rows, map[int]string{0: "node0"}); err != nil {
		t.Fatal(err)
	}
	const want = `{"traceEvents":[` +
		`{"name":"start","cat":"c","ph":"i","ts":0,"pid":0,"tid":1},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"node0"}},` +
		`{"name":"iter 0","cat":"compute","ph":"X","ts":2000000,"dur":1000000,"pid":0,"tid":1},` +
		`{"name":"failure","cat":"failure","ph":"i","ts":5000000,"pid":0,"tid":0,"args":{"kind":"soft"}}` +
		"]}\n"
	if got := sb.String(); got != want {
		t.Fatalf("WriteChrome output\n got: %s\nwant: %s", got, want)
	}
}
