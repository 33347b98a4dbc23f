package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"nvmcp/internal/sim"
)

// Observer is one run's instrumentation hub: the event bus with its taps and
// the metrics registry, stamped with the simulation's virtual clock. Create
// one per sim.Env; concurrent publication from different host goroutines is
// safe — the bus is serialized by the observer's mutex, the registry by its
// own.
type Observer struct {
	env *sim.Env
	reg *Registry

	mu      sync.Mutex
	events  eventLog
	tapView Attrs // the attributes taps see, reused for every event
	taps    []func(Event)
	lastTUS int64
}

// New builds an Observer over a simulation environment and attaches the
// engine's warn hook, so rare engine warnings (negative-delay clamps) land
// on the event bus as EvEngineWarn.
func New(env *sim.Env) *Observer {
	o := &Observer{env: env, reg: NewRegistry()}
	env.SetWarnFunc(func(code, msg string) {
		o.publish(0, "sim", EvEngineWarn, "", 0, 0, []Attr{Str("code", code), Str("msg", msg)})
	})
	return o
}

// Registry returns the metrics registry.
func (o *Observer) Registry() *Registry { return o.reg }

// AddEventTap installs a tap alongside any already attached: a callback
// invoked synchronously for every event, in publication order and attach
// order, after the virtual timestamp is stamped. Taps run under the
// observer's mutex — they must be fast and must never publish back into
// this observer (Registry updates are fine; the registry has its own lock).
// The event's Attrs are reused for the next event, so a tap that keeps them
// must copy them. Every consumer (the lineage tracer, the SLO flight
// recorder, the drift observatory) attaches here. A nil tap is ignored.
func (o *Observer) AddEventTap(tap func(Event)) {
	if tap == nil {
		return
	}
	o.mu.Lock()
	o.taps = append(o.taps, tap)
	o.mu.Unlock()
}

// Emit publishes one event, stamping it with the current virtual time. The
// event's TUS and At are ignored.
func (o *Observer) Emit(ev Event) {
	o.publish(ev.Node, ev.Actor, ev.Type, ev.Chunk, ev.Bytes, ev.Start, ev.Attrs)
}

// publish appends one event to the log and hands it to the taps, which also
// see the exact publish time and the interval start (zero for an event that
// closes none). attrs is copied, never kept, so callers may pass a stack
// buffer.
func (o *Observer) publish(node int, actor string, t Type, chunk string, bytes int64, start time.Duration, attrs []Attr) {
	o.mu.Lock()
	o.record(o.env.Now(), node, actor, t, chunk, bytes, start, attrs)
	o.mu.Unlock()
}

// record appends one event stamped at to the log and hands it to the taps.
// It is the one path onto the bus, shared by publish and MergeShards; the
// caller holds o.mu.
func (o *Observer) record(at time.Duration, node int, actor string, t Type, chunk string, bytes int64, start time.Duration, attrs []Attr) {
	tus := at.Microseconds()
	o.events.append(tus, t, node, actor, chunk, bytes, attrs)
	o.lastTUS = tus
	if len(o.taps) > 0 {
		ev := Event{TUS: tus, Type: t, Node: node, Actor: actor, Chunk: chunk, Bytes: bytes, At: at, Start: start}
		if len(attrs) > 0 {
			o.tapView = append(o.tapView[:0], attrs...)
			ev.Attrs = o.tapView[:len(attrs):len(attrs)]
		}
		for _, tap := range o.taps {
			tap(ev)
		}
	}
}

// Progress returns the virtual timestamp of the most recent event and the
// bus length. Safe to call from host goroutines that run truly concurrently
// with the simulation (the live introspection server): it reads only
// mutex-guarded observer state, never the simulation clock.
func (o *Observer) Progress() (virtualUS int64, events int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastTUS, o.events.n
}

// Events returns a copy of every event published so far, in publication
// order (which is virtual-time order, since the bus stamps on arrival). The
// copy costs two allocations however many events there are.
func (o *Observer) Events() []Event {
	v := o.view()
	return v.events("")
}

// EventCount returns how many events of a type were published ("" = all).
func (o *Observer) EventCount(t Type) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.events.count(t)
}

// WriteEventsJSONL streams the event log, one JSON object per line.
func (o *Observer) WriteEventsJSONL(w io.Writer) error {
	v := o.view()
	enc := json.NewEncoder(w)
	return v.each(func(ev Event) error {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("obs: encode event: %w", err)
		}
		return nil
	})
}

// view snapshots the event log for reading outside the lock.
func (o *Observer) view() logView {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.events.view()
}

// Recorder returns a publication handle scoped to (node, actor). Recorders
// are cheap; make one per rank, helper, or device.
func (o *Observer) Recorder(node int, actor string) *Recorder {
	r := &Recorder{o: o, node: node, actor: actor}
	// Precompute the scope's canonical label form once: metric publication
	// is the instrumentation hot path, and canonicalizing two labels per
	// counter bump (sort + quote + join) dwarfs the map lookup it keys.
	r.scopeCanon = Labels{"node": itoa(node), "actor": actor}.canon()
	return r
}

// Recorder is a nil-safe, scoped publication handle. Every method on a nil
// Recorder is a no-op, so instrumented code needs no conditionals.
type Recorder struct {
	o     *Observer
	node  int
	actor string

	scopeCanon string

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
	c.scopeCanon = Labels{"node": itoa(r.node), "actor": r.actor, "scope": scope}.canon()
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

// Log publishes an event carrying this recorder's scope, with typed
// attributes: rec.Log(EvChunkCommit, name, size, Int("seq", s)). It builds
// no map and formats nothing.
func (r *Recorder) Log(t Type, chunk string, bytes int64, attrs ...Attr) {
	if r == nil {
		return
	}
	r.o.publish(r.node, r.actor, t, chunk, bytes, 0, attrs)
}

// LogSpan is Log for an event that closes an interval begun at start (an
// iteration, a checkpoint, a pre-copy, a ship): taps see start beside the
// exact publish time, so a trace tap draws the span from the event alone.
// The log and its JSONL form keep neither.
func (r *Recorder) LogSpan(start time.Duration, t Type, chunk string, bytes int64, attrs ...Attr) {
	if r == nil {
		return
	}
	r.o.publish(r.node, r.actor, t, chunk, bytes, start, attrs)
}

// Emit is the map-form adapter onto Log: canonical decimal values become
// integer attributes, so typed readers and the JSON form see no difference.
// Its one caller is bench/e2e, a separate module whose sources stay fixed
// with the benchmark; the adapter goes when that harness is folded (ROADMAP
// item 8). Internal emitters use Log, and make lint keeps it that way.
func (r *Recorder) Emit(t Type, chunk string, bytes int64, attrs map[string]string) {
	if r == nil {
		return
	}
	var buf [8]Attr
	r.o.publish(r.node, r.actor, t, chunk, bytes, 0, appendMapAttrs(buf[:0], attrs))
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
	return r.o.reg.counterCanon(name, r.scopeCanon), r.o.reg.counterCanon(name, "")
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
