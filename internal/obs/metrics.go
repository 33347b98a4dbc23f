package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels is a metric's label set. The empty (or nil) set is the cluster
// scope; per-node and per-rank metrics add "node"/"actor" labels. Labels are
// copied on first use, so callers may reuse maps.
type Labels map[string]string

// canon renders labels in canonical (sorted) Prometheus form, which also
// serves as the identity key inside the registry. Hot publication paths
// avoid calling this repeatedly: Recorders precompute their scope's canon
// string once and hand it to the registry's *Canon accessors.
func (l Labels) canon() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l[k]))
	}
	b.WriteByte('}')
	return b.String()
}

func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	mu sync.Mutex
	v  int64
}

// Add increments the counter.
func (c *Counter) Add(delta int64) {
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Get returns the current value.
func (c *Counter) Get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a settable float64 metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Get returns the current value.
func (g *Gauge) Get() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// metricKey identifies one metric instance.
type metricKey struct {
	name   string
	labels string
}

// Registry holds a run's named metrics. All accessor methods create the
// metric on first use, so publishing and reading sites need no registration
// step and never observe nil.
type Registry struct {
	mu        sync.Mutex
	counters  map[metricKey]*Counter
	gauges    map[metricKey]*Gauge
	timelines map[metricKey]*Timeline
	labels    map[metricKey]Labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[metricKey]*Counter),
		gauges:    make(map[metricKey]*Gauge),
		timelines: make(map[metricKey]*Timeline),
		labels:    make(map[metricKey]Labels),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.counterCanon(name, labels.canon(), labels)
}

// counterCanon is Counter with the labels' canonical form precomputed —
// the allocation-free path Recorders use on every Add.
func (r *Registry) counterCanon(name, canon string, labels Labels) *Counter {
	key := metricKey{name, canon}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.labels[key] = labels.clone()
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.gaugeCanon(name, labels.canon(), labels)
}

func (r *Registry) gaugeCanon(name, canon string, labels Labels) *Gauge {
	key := metricKey{name, canon}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.labels[key] = labels.clone()
	}
	return g
}

// Timeline returns the named timeline, creating it if needed. Hot callers
// should hold on to the returned handle rather than re-resolving it per
// step — resolving canonicalizes the labels every time.
func (r *Registry) Timeline(name string, labels Labels) *Timeline {
	key := metricKey{name, labels.canon()}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timelines[key]
	if !ok {
		t = &Timeline{}
		r.timelines[key] = t
		r.labels[key] = labels.clone()
	}
	return t
}

// sortedKeys returns the keys of any metric map in deterministic order.
func sortedKeys[V any](m map[metricKey]V) []metricKey {
	keys := make([]metricKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].labels < keys[j].labels
	})
	return keys
}

// WriteProm renders the registry in Prometheus text exposition format.
// Counters gain a _total suffix; timelines are exposed as a pair of gauges:
// the final cumulative value (<name>_cum) and the series length
// (<name>_steps) — the full series belongs in the JSONL/report sinks.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[metricKey]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[metricKey]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timelines := make(map[metricKey]*Timeline, len(r.timelines))
	for k, v := range r.timelines {
		timelines[k] = v
	}
	r.mu.Unlock()

	typed := make(map[string]bool)
	header := func(name, kind string) {
		if !typed[name] {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
			typed[name] = true
		}
	}
	for _, key := range sortedKeys(counters) {
		name := key.name + "_total"
		header(name, "counter")
		fmt.Fprintf(w, "%s%s %d\n", name, key.labels, counters[key].Get())
	}
	for _, key := range sortedKeys(gauges) {
		header(key.name, "gauge")
		fmt.Fprintf(w, "%s%s %g\n", key.name, key.labels, gauges[key].Get())
	}
	for _, key := range sortedKeys(timelines) {
		tl := timelines[key]
		cumName := key.name + "_cum"
		header(cumName, "gauge")
		fmt.Fprintf(w, "%s%s %g\n", cumName, key.labels, tl.Last())
		stepsName := key.name + "_steps"
		header(stepsName, "gauge")
		fmt.Fprintf(w, "%s%s %d\n", stepsName, key.labels, tl.Len())
	}
	return nil
}

// Flatten returns every scalar metric (counters and gauges) as a map of
// "name{labels}" → value, for embedding into run reports.
func (r *Registry) Flatten() map[string]float64 {
	r.mu.Lock()
	counters := make(map[metricKey]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[metricKey]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(counters)+len(gauges))
	for key, c := range counters {
		out[key.name+key.labels] = float64(c.Get())
	}
	for key, g := range gauges {
		out[key.name+key.labels] = g.Get()
	}
	return out
}
