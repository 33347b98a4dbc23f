package obs

import (
	"sort"
	"sync"
	"time"
)

// Timeline is a mutex-guarded step function of a measurement over virtual
// time — the registry's bandwidth-timeline metric. Values hold until the
// next Set.
type Timeline struct {
	mu     sync.Mutex
	times  []time.Duration
	values []float64
}

// Set appends a step: from at onward the value is v. Calls must come with
// non-decreasing at; a Set at the latest timestamp overwrites that step.
func (t *Timeline) Set(at time.Duration, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.times)
	if n > 0 && at < t.times[n-1] {
		panic("obs: timeline set in the past")
	}
	if n > 0 && t.times[n-1] == at {
		t.values[n-1] = v
		return
	}
	t.times = append(t.times, at)
	t.values = append(t.values, v)
}

// Last returns the most recent step value (0 when empty).
func (t *Timeline) Last() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.values) == 0 {
		return 0
	}
	return t.values[len(t.values)-1]
}

// Len returns the number of recorded steps.
func (t *Timeline) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.times)
}

// At returns the value in effect at virtual time at (0 before the first
// step).
func (t *Timeline) At(at time.Duration) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.at(at)
}

// at is At with t.mu held.
func (t *Timeline) at(at time.Duration) float64 {
	i := sort.Search(len(t.times), func(i int) bool { return t.times[i] > at })
	if i == 0 {
		return 0
	}
	return t.values[i-1]
}

// Window returns the step function restricted to [start, end): the value in
// effect at start (stamped at start itself), followed by every step strictly
// inside the range. An empty or inverted range returns nil slices. The
// returned slices are fresh copies — callers may mutate them.
func (t *Timeline) Window(start, end time.Duration) ([]time.Duration, []float64) {
	if end <= start {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// First step strictly after start; the entry before it (if any) is the
	// value in effect at start.
	i := sort.Search(len(t.times), func(i int) bool { return t.times[i] > start })
	times := []time.Duration{start}
	values := []float64{0}
	if i > 0 {
		values[0] = t.values[i-1]
	}
	for ; i < len(t.times) && t.times[i] < end; i++ {
		times = append(times, t.times[i])
		values = append(values, t.values[i])
	}
	return times, values
}

// DiffBuckets treats the timeline as a cumulative counter (each Set records
// a new running total) and returns per-bucket increments over [0, end) —
// e.g. bytes transferred per window from a cumulative-bytes series. A last
// bucket cut short by end covers only [lo, end). A non-positive width
// panics.
func (t *Timeline) DiffBuckets(end, width time.Duration) []float64 {
	if width <= 0 {
		panic("obs: bucket width must be positive")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int((end + width - 1) / width)
	out := make([]float64, n)
	for i := range out {
		lo := time.Duration(i) * width
		hi := min(lo+width, end)
		out[i] = t.at(hi) - t.at(lo)
	}
	return out
}

// PeakDiffBucket returns the largest DiffBuckets increment and its index.
func (t *Timeline) PeakDiffBucket(end, width time.Duration) (peak float64, idx int) {
	for i, v := range t.DiffBuckets(end, width) {
		if v > peak {
			peak = v
			idx = i
		}
	}
	return peak, idx
}

// Meter accumulates busy time for a simulated worker (e.g. the checkpoint
// helper core), from paired Start/Stop calls in virtual time.
type Meter struct {
	busy    time.Duration
	started bool
	since   time.Duration
}

// Start marks the worker busy from time t. Starting an already-started
// meter panics — it means the instrumentation is wrong.
func (m *Meter) Start(t time.Duration) {
	if m.started {
		panic("obs: meter started twice")
	}
	m.started = true
	m.since = t
}

// Stop marks the worker idle from time t.
func (m *Meter) Stop(t time.Duration) {
	if !m.started {
		panic("obs: meter stopped while idle")
	}
	m.busy += t - m.since
	m.started = false
}

// Busy returns accumulated busy time, including a still-open interval up to now.
func (m *Meter) Busy(now time.Duration) time.Duration {
	if m.started {
		return m.busy + (now - m.since)
	}
	return m.busy
}

// Utilization returns busy time as a fraction of total elapsed time.
func (m *Meter) Utilization(now time.Duration) float64 {
	if now <= 0 {
		return 0
	}
	return float64(m.Busy(now)) / float64(now)
}
