package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// SpanRecorder collects timeline spans and instants from a simulation run
// and serializes them in the Chrome trace-event format, viewable in
// chrome://tracing or Perfetto. Virtual times map directly onto the trace's
// microsecond timestamps.
type SpanRecorder struct {
	events []chromeEvent
	names  map[int]string // pid -> process name
}

type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"` // microseconds
	Dur   int64             `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{names: make(map[int]string)}
}

// NameProcess labels a pid lane (e.g. "node0") in the viewer.
func (r *SpanRecorder) NameProcess(pid int, name string) {
	if r == nil {
		return
	}
	r.names[pid] = name
}

// Span records a completed interval on (pid, tid).
func (r *SpanRecorder) Span(name, cat string, pid, tid int, start, dur time.Duration, args map[string]string) {
	if r == nil {
		return
	}
	r.events = append(r.events, chromeEvent{
		Name: name, Cat: cat, Phase: "X",
		TS: start.Microseconds(), Dur: dur.Microseconds(),
		PID: pid, TID: tid, Args: args,
	})
}

// Instant records a point event on (pid, tid).
func (r *SpanRecorder) Instant(name, cat string, pid, tid int, at time.Duration, args map[string]string) {
	if r == nil {
		return
	}
	r.events = append(r.events, chromeEvent{
		Name: name, Cat: cat, Phase: "i",
		TS:  at.Microseconds(),
		PID: pid, TID: tid, Args: args,
	})
}

// Len returns the number of recorded events.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// WriteChrome emits the trace as Chrome trace-event JSON (the
// {"traceEvents": [...]} object form).
func (r *SpanRecorder) WriteChrome(w io.Writer) error {
	events := append([]chromeEvent(nil), r.events...)
	// Metadata events name the process lanes.
	pids := make([]int, 0, len(r.names))
	for pid := range r.names {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]string{"name": r.names[pid]},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
