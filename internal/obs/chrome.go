package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// ChromeEvent is one row of a Chrome trace-event file, viewable in
// chrome://tracing or Perfetto: a span ("X"), an instant ("i") or a
// metadata row ("M"). Virtual times map directly onto the trace's
// microsecond timestamps.
type ChromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"` // microseconds
	Dur   int64             `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChrome emits rows as Chrome trace-event JSON (the
// {"traceEvents": [...]} object form): rows in recording order plus one
// process_name row per names entry (pid → lane label), stably sorted by
// timestamp. rows is not modified.
func WriteChrome(w io.Writer, rows []ChromeEvent, names map[int]string) error {
	events := append([]ChromeEvent(nil), rows...)
	pids := make([]int, 0, len(names))
	for pid := range names {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		events = append(events, ChromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]string{"name": names[pid]},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}{events})
}
