package obs

import (
	"io"
	"sync"
	"time"

	"nvmcp/internal/sim"
)

// Observer is one run's instrumentation hub: the event bus, the metrics
// registry, and an optional Chrome span recorder, all stamped with the
// simulation's virtual clock. Create one per sim.Env; concurrent publication
// from different host goroutines is safe — the bus and the span recorder are
// serialized by the observer's mutex, the registry by its own.
type Observer struct {
	env *sim.Env
	reg *Registry

	mu      sync.Mutex
	events  []Event
	spans   *SpanRecorder
	taps    []func(Event)
	lastTUS int64
}

// New builds an Observer over a simulation environment and attaches the
// engine's warn hook, so rare engine warnings (negative-delay clamps) land
// on the event bus as EvEngineWarn.
func New(env *sim.Env) *Observer {
	o := &Observer{env: env, reg: NewRegistry()}
	env.SetWarnFunc(func(code, msg string) {
		o.Emit(Event{Type: EvEngineWarn, Actor: "sim",
			Attrs: map[string]string{"code": code, "msg": msg}})
	})
	return o
}

// Registry returns the metrics registry.
func (o *Observer) Registry() *Registry { return o.reg }

// Spans returns the attached Chrome/Perfetto span recorder, nil when none
// is. Callers must not write to it concurrently with live Recorders; read it
// after the run.
func (o *Observer) Spans() *SpanRecorder {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spans
}

// UseSpanRecorder attaches the recorder that spans, instants and process
// names are written to. Until one is attached nothing is recorded; nil
// detaches it again.
func (o *Observer) UseSpanRecorder(r *SpanRecorder) {
	o.mu.Lock()
	o.spans = r
	o.mu.Unlock()
}

// AddEventTap installs a tap alongside any already attached: a callback
// invoked synchronously for every event, in publication order and attach
// order, after the virtual timestamp is stamped. Taps run under the
// observer's mutex — they must be fast and must never publish back into
// this observer (Registry updates are fine; the registry has its own lock).
// Every consumer (the lineage tracer, the SLO flight recorder, the drift
// observatory) attaches here. A nil tap is ignored.
func (o *Observer) AddEventTap(tap func(Event)) {
	if tap == nil {
		return
	}
	o.mu.Lock()
	o.taps = append(o.taps, tap)
	o.mu.Unlock()
}

// Emit publishes one event, stamping it with the current virtual time.
func (o *Observer) Emit(ev Event) {
	o.mu.Lock()
	ev.TUS = o.env.Now().Microseconds()
	o.events = append(o.events, ev)
	o.lastTUS = ev.TUS
	for _, tap := range o.taps {
		tap(ev)
	}
	o.mu.Unlock()
}

// Progress returns the virtual timestamp of the most recent event and the
// bus length. Safe to call from host goroutines that run truly concurrently
// with the simulation (the live introspection server): it reads only
// mutex-guarded observer state, never the simulation clock.
func (o *Observer) Progress() (virtualUS int64, events int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastTUS, len(o.events)
}

// Events returns a copy of every event published so far, in publication
// order (which is virtual-time order, since the bus stamps on arrival).
func (o *Observer) Events() []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Event(nil), o.events...)
}

// EventCount returns how many events of a type were published ("" = all).
func (o *Observer) EventCount(t Type) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t == "" {
		return len(o.events)
	}
	n := 0
	for _, ev := range o.events {
		if ev.Type == t {
			n++
		}
	}
	return n
}

// WriteEventsJSONL streams the event log, one JSON object per line.
func (o *Observer) WriteEventsJSONL(w io.Writer) error {
	return WriteJSONL(w, o.Events())
}

// Recorder returns a publication handle scoped to (node, actor). Recorders
// are cheap; make one per rank, helper, or device.
func (o *Observer) Recorder(node int, actor string) *Recorder {
	r := &Recorder{o: o, node: node, actor: actor}
	// Precompute the scope's canonical label form once: metric publication
	// is the instrumentation hot path, and canonicalizing two labels per
	// counter bump (sort + quote + join) dwarfs the map lookup it keys.
	r.scopeLabels = Labels{"node": itoa(node), "actor": actor}
	r.scopeCanon = r.scopeLabels.canon()
	return r
}

// Recorder is a nil-safe, scoped publication handle. Every method on a nil
// Recorder is a no-op, so instrumented code needs no conditionals.
type Recorder struct {
	o     *Observer
	node  int
	actor string

	scopeLabels Labels
	scopeCanon  string

	childMu  sync.Mutex
	children map[string]*Recorder
}

// Child returns a recorder scoped one level below this one: same node, same
// actor, plus a "scope" label (a tier name, a queue, a phase). Children are
// cached on the parent, so hot loops that resolve the same scope per chunk
// pay one mutex-guarded map hit instead of re-canonicalizing three labels
// per metric bump. Nil-safe: a nil recorder returns nil.
func (r *Recorder) Child(scope string) *Recorder {
	if r == nil {
		return nil
	}
	r.childMu.Lock()
	defer r.childMu.Unlock()
	if c, ok := r.children[scope]; ok {
		return c
	}
	c := &Recorder{o: r.o, node: r.node, actor: r.actor}
	c.scopeLabels = Labels{"node": itoa(r.node), "actor": r.actor, "scope": scope}
	c.scopeCanon = c.scopeLabels.canon()
	if r.children == nil {
		r.children = make(map[string]*Recorder)
	}
	r.children[scope] = c
	return c
}

// Observer returns the backing observer (nil for a nil recorder).
func (r *Recorder) Observer() *Observer {
	if r == nil {
		return nil
	}
	return r.o
}

// Node returns the recorder's node scope.
func (r *Recorder) Node() int {
	if r == nil {
		return 0
	}
	return r.node
}

// Emit publishes an event carrying this recorder's scope.
func (r *Recorder) Emit(t Type, chunk string, bytes int64, attrs map[string]string) {
	if r == nil {
		return
	}
	r.o.Emit(Event{Type: t, Node: r.node, Actor: r.actor, Chunk: chunk, Bytes: bytes, Attrs: attrs})
}

// Add increments the named counter in both the recorder's (node, actor)
// scope and the cluster scope, so per-node breakdowns and rollups are always
// both available. Components that count the same names over and over hold
// Count handles instead, which resolve both series once.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	scoped, total := r.series(name)
	scoped.Add(delta)
	total.Add(delta)
}

// series resolves the two counters Add books name into: the recorder's
// (node, actor) series and the cluster rollup. Both are created here.
func (r *Recorder) series(name string) (scoped, total *Counter) {
	return r.o.reg.counterCanon(name, r.scopeCanon, r.scopeLabels), r.o.reg.counterCanon(name, "", nil)
}

// SpansActive reports whether a span recorder is attached — callers
// formatting span names (Sprintf per iteration) should guard on it so a
// traceless run pays nothing.
func (r *Recorder) SpansActive() bool {
	if r == nil {
		return false
	}
	r.o.mu.Lock()
	defer r.o.mu.Unlock()
	return r.o.spans != nil
}

// Span records a completed interval on the recorder's node, in lane tid —
// the auto-wired Perfetto view. Nothing is mirrored onto the event bus:
// spans are the visual record, events the analytical one.
func (r *Recorder) Span(name, cat string, lane int, start, dur time.Duration, args map[string]string) {
	if r == nil {
		return
	}
	r.o.mu.Lock()
	if r.o.spans != nil {
		r.o.spans.Span(name, cat, r.node, lane, start, dur, args)
	}
	r.o.mu.Unlock()
}

// Instant records a point event on the recorder's node and lane.
func (r *Recorder) Instant(name, cat string, lane int, at time.Duration, args map[string]string) {
	if r == nil {
		return
	}
	r.o.mu.Lock()
	if r.o.spans != nil {
		r.o.spans.Instant(name, cat, r.node, lane, at, args)
	}
	r.o.mu.Unlock()
}

// NameProcess labels the recorder's node lane in the trace viewer.
func (r *Recorder) NameProcess(name string) {
	if r == nil {
		return
	}
	r.o.mu.Lock()
	if r.o.spans != nil {
		r.o.spans.NameProcess(r.node, name)
	}
	r.o.mu.Unlock()
}

// itoa avoids strconv for the tiny node numbers in scope labels.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
