package cluster

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"nvmcp/internal/obs"
)

// helperLane is the tid that helper ship spans are drawn in on their node.
const helperLane = 999

// ChromeTrace is a run's Chrome/Perfetto timeline, derived from its event
// bus by one tap per observer (one per shard in a partitioned run).
type ChromeTrace struct {
	taps  []*chromeTap
	names map[int]string // pid → lane label
}

// ChromeTrace attaches the timeline tap to the run's event bus and returns
// the trace it fills. Call it after New and before Execute: it panics once
// the run has started, and a second call returns the same trace.
func (c *Cluster) ChromeTrace() *ChromeTrace {
	if c.chrome != nil {
		return c.chrome
	}
	if c.executed {
		panic("cluster: ChromeTrace called after Execute")
	}
	subs := []*Cluster{c}
	if c.sharded != nil {
		subs = c.sharded.subs
	}
	tr := &ChromeTrace{names: make(map[int]string)}
	for _, sub := range subs {
		tap := newChromeTap(sub.Cfg, sub.rankBase, tr.names)
		sub.Obs.AddEventTap(tap.observe)
		tr.taps = append(tr.taps, tap)
	}
	c.chrome = tr
	return tr
}

// WriteChrome writes the trace as Chrome trace-event JSON, the shards' rows
// concatenated in shard order before the writer's stable time sort.
func (tr *ChromeTrace) WriteChrome(w io.Writer) error {
	var rows []obs.ChromeEvent
	for _, tap := range tr.taps {
		rows = append(rows, tap.rows...)
	}
	return obs.WriteChrome(w, rows, tr.names)
}

// chromeTap turns one observer's events into trace rows. An interval event
// carries its start (obs.Recorder.LogSpan), so the span it closes is
// [Start, At]; rank rows go in the rank's lane, helper ships in helperLane.
type chromeTap struct {
	ckptEvery int // iterations per local checkpoint; 0 = no checkpoints
	ranks     map[string]*rankTrack
	rows      []obs.ChromeEvent
}

// rankTrack is a rank's lane and what its quiesce span needs. No event
// marks a quiesce: a rank ending a checkpoint iteration waits for its
// in-flight pre-copy (precopy.Engine.Quiesce), so the copy's event closes
// the wait. quiesce holds from such an iteration's end (iterEnd) until the
// rank's next iteration or a failure, which kills every rank.
type rankTrack struct {
	lane    int
	iterEnd time.Duration
	quiesce bool
}

// newChromeTap builds the tap for one (sub-)cluster's ranks and names its
// compute nodes' lanes in names.
func newChromeTap(cfg Config, rankBase []int, names map[int]string) *chromeTap {
	t := &chromeTap{ranks: make(map[string]*rankTrack)}
	if !cfg.NoCheckpoint {
		t.ckptEvery = cfg.LocalEvery
	}
	for n := 0; n < cfg.Nodes; n++ {
		for r := rankBase[n]; r < rankBase[n+1]; r++ {
			t.ranks[fmt.Sprintf("rank%d", r+cfg.rankOffset)] = &rankTrack{lane: r - rankBase[n]}
			names[n+cfg.nodeOffset] = fmt.Sprintf("node%d", n+cfg.nodeOffset)
		}
	}
	return t
}

func (t *chromeTap) observe(ev obs.Event) {
	r := t.ranks[ev.Actor]
	switch {
	case ev.Type == obs.EvIteration && r != nil:
		iter, _ := ev.Attrs.Int("iter")
		t.span(fmt.Sprintf("iter %d", iter), "compute", ev, r.lane, ev.Start, nil)
		r.iterEnd = ev.At
		r.quiesce = t.ckptEvery > 0 && (iter+1)%int64(t.ckptEvery) == 0
	case ev.Type == obs.EvCheckpointCommit && r != nil:
		copied, _ := ev.Attrs.Int("copied")
		skipped, _ := ev.Attrs.Int("skipped")
		t.span("local ckpt", "ckpt", ev, r.lane, ev.Start, map[string]string{
			"copied": strconv.FormatInt(copied, 10), "skipped": strconv.FormatInt(skipped, 10)})
	case ev.Type == obs.EvPrecopyCopy && r != nil:
		t.span("precopy "+ev.Chunk, "precopy", ev, r.lane, ev.Start, nil)
		if r.quiesce && ev.Start <= r.iterEnd && r.iterEnd < ev.At {
			t.span("quiesce", "ckpt", ev, r.lane, r.iterEnd, nil)
		}
	case ev.Type == obs.EvChunkShipped:
		t.span("ship "+ev.Chunk, "remote", ev, helperLane, ev.Start,
			map[string]string{"bytes": strconv.FormatInt(ev.Bytes, 10)})
	case ev.Type == obs.EvRemoteTrigger && r != nil:
		t.rows = append(t.rows, obs.ChromeEvent{Name: "remote trigger", Cat: "remote",
			Phase: "i", TS: ev.TUS, PID: ev.Node, TID: r.lane})
	case ev.Type == obs.EvFailure:
		t.rows = append(t.rows, obs.ChromeEvent{Name: ev.Attrs.Str("kind") + " failure",
			Cat: "failure", Phase: "i", TS: ev.TUS, PID: ev.Node})
		for _, r := range t.ranks {
			r.quiesce = false
		}
	}
}

// span records [start, ev.At] in lane tid of the event's node: ts is start
// and dur the nanosecond length, each in whole microseconds. The difference
// of the rounded ends would be a microsecond too long whenever the span
// straddles a microsecond boundary.
func (t *chromeTap) span(name, cat string, ev obs.Event, tid int, start time.Duration, args map[string]string) {
	t.rows = append(t.rows, obs.ChromeEvent{
		Name: name, Cat: cat, Phase: "X", TS: start.Microseconds(),
		Dur: (ev.At - start).Microseconds(), PID: ev.Node, TID: tid, Args: args,
	})
}
