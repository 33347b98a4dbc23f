package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nvmcp/internal/stats"
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

// Histogram is a mutex-guarded wrapper over stats.Histogram that also tracks
// the observation sum, for Prometheus-style exposition.
type Histogram struct {
	mu  sync.Mutex
	h   *stats.Histogram
	sum float64
}

// Observe counts one observation.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.h.Add(x)
	if !math.IsNaN(x) {
		h.sum += x
	}
	h.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram and the running sum.
func (h *Histogram) Snapshot() (stats.Histogram, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := *h.h
	cp.Edges = append([]float64(nil), h.h.Edges...)
	cp.Counts = append([]int64(nil), h.h.Counts...)
	return cp, h.sum
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
	hists     map[metricKey]*Histogram
	timelines map[metricKey]*Timeline
	labels    map[metricKey]Labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[metricKey]*Counter),
		gauges:    make(map[metricKey]*Gauge),
		hists:     make(map[metricKey]*Histogram),
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

// Histogram returns the named histogram, creating it over the given edges if
// needed. Edges are fixed at creation; later calls may pass nil.
func (r *Registry) Histogram(name string, labels Labels, edges []float64) *Histogram {
	return r.histogramCanon(name, labels.canon(), labels, edges)
}

func (r *Registry) histogramCanon(name, canon string, labels Labels, edges []float64) *Histogram {
	key := metricKey{name, canon}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		if len(edges) < 2 {
			panic(fmt.Sprintf("obs: histogram %s created without edges", name))
		}
		h = &Histogram{h: stats.NewHistogram(edges)}
		r.hists[key] = h
		r.labels[key] = labels.clone()
	}
	return h
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
	hists := make(map[metricKey]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
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
	for _, key := range sortedKeys(hists) {
		header(key.name, "histogram")
		h, sum := hists[key].Snapshot()
		cum := h.Under
		for i, c := range h.Counts {
			cum += c
			fmt.Fprintf(w, "%s_bucket%s %d\n", key.name, mergeLabels(key.labels, fmt.Sprintf("le=%q", formatEdge(h.Edges[i+1]))), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", key.name, mergeLabels(key.labels, `le="+Inf"`), h.Total)
		fmt.Fprintf(w, "%s_sum%s %g\n", key.name, key.labels, sum)
		fmt.Fprintf(w, "%s_count%s %d\n", key.name, key.labels, h.Total)
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

// formatEdge renders a histogram edge for the le label.
func formatEdge(e float64) string { return fmt.Sprintf("%g", e) }

// mergeLabels splices an extra label into a canonical label string.
func mergeLabels(canon, extra string) string {
	if canon == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(canon, "}") + "," + extra + "}"
}

// MetricPoint is one scalar metric sample from Snapshot: the metric name,
// its labels in canonical (sorted, quoted) form, and the current value.
type MetricPoint struct {
	Name   string
	Labels string
	Value  float64
}

// Snapshot appends every scalar metric (counters and gauges) to buf and
// returns it. Unlike Flatten it builds no map and concatenates no strings —
// callers that poll repeatedly (the SLO flight recorder's window-close path)
// reuse the buffer across polls and pay only the value reads. Order is
// unspecified; match points by (Name, Labels).
func (r *Registry) Snapshot(buf []MetricPoint) []MetricPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, c := range r.counters {
		buf = append(buf, MetricPoint{Name: key.name, Labels: key.labels, Value: float64(c.Get())})
	}
	for key, g := range r.gauges {
		buf = append(buf, MetricPoint{Name: key.name, Labels: key.labels, Value: g.Get()})
	}
	return buf
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
