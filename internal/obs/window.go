package obs

import "time"

// Window is one closed window of a WindowFold. Values holds the series that
// had data in the window: an absent key means "no data" (e.g. no pre-copy
// traffic, so a hit rate is undefined), never zero.
type Window struct {
	Index   int   `json:"index"`
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	// Values maps series name → windowed value. JSON marshals map keys
	// sorted, so the artifact is byte-stable.
	Values map[string]float64 `json:"values"`
}

// Retention bounds a WindowFold applies when its consumer sets none.
const (
	defaultMaxWindows    = 512
	defaultMaxViolations = 64
)

// WindowFold is the fixed-width virtual-time window machinery of the bus
// consumers that judge a run window by window: the SLO flight recorder and
// the drift observatory. It closes windows lazily as folded events' times
// cross their boundaries, handing each to the consumer's close function,
// keeps the newest closed windows in a bounded ring, keeps the first
// violations (of the consumer's type V) while counting every one, and
// latches once finished so later events are dropped.
//
// The window boundary rule is the fold's contract: an event at time t
// first closes every window whose end is <= t, then belongs to the open
// window. Both the live event tap and a post-run replay of the same stream
// therefore close the same windows.
//
// A WindowFold is not safe for concurrent use: the consumer guards it with
// the lock that guards the state its close function reads.
type WindowFold[V any] struct {
	width time.Duration
	close func(w *Window, start, end time.Duration)

	open  time.Duration // start of the open window
	total int           // windows closed ever

	ring    []Window // retained windows: ring[(head+i)%len(ring)], oldest first
	head    int
	maxWins int

	violations []V
	violCount  int
	maxViols   int

	finished bool
	end      time.Duration
}

// NewWindowFold builds a fold of width-wide windows starting at virtual
// time 0. close fills w.Values for the window [start, end); w's Index,
// StartUS and EndUS are already set. Bounds <= 0 take the defaults.
func NewWindowFold[V any](width time.Duration, maxWindows, maxViolations int,
	close func(w *Window, start, end time.Duration)) *WindowFold[V] {
	if maxWindows <= 0 {
		maxWindows = defaultMaxWindows
	}
	if maxViolations <= 0 {
		maxViolations = defaultMaxViolations
	}
	return &WindowFold[V]{width: width, close: close, maxWins: maxWindows, maxViols: maxViolations}
}

// Advance closes every window that ends at or before t. It reports false
// once the fold is finished; the caller then drops the event.
func (f *WindowFold[V]) Advance(t time.Duration) bool {
	if f.finished {
		return false
	}
	for t >= f.open+f.width {
		f.closeAt(f.open + f.width)
	}
	return true
}

// Finish seals the fold at virtual time now: it closes every window that
// ends by now, then the partial tail window [Open(), tail) when tail is
// past Open() (pass 0 for no tail). It reports false, and does nothing, if
// the fold was already finished.
func (f *WindowFold[V]) Finish(now, tail time.Duration) bool {
	if !f.Advance(now) {
		return false
	}
	if tail > f.open {
		f.closeAt(tail)
	}
	f.finished = true
	f.end = max(f.open, now)
	return true
}

// closeAt closes the open window at end and opens the next one there.
func (f *WindowFold[V]) closeAt(end time.Duration) {
	w := Window{Index: f.total, StartUS: f.open.Microseconds(), EndUS: end.Microseconds()}
	f.close(&w, f.open, end)
	f.total++
	f.open = end
	if len(f.ring) < f.maxWins {
		f.ring = append(f.ring, w)
		return
	}
	f.ring[f.head] = w
	f.head = (f.head + 1) % len(f.ring)
}

// Violate records one violation: the first maxViolations are kept, every
// one is counted.
func (f *WindowFold[V]) Violate(v V) {
	f.violCount++
	if len(f.violations) < f.maxViols {
		f.violations = append(f.violations, v)
	}
}

// Width is the window width.
func (f *WindowFold[V]) Width() time.Duration { return f.width }

// Open is the open window's start: the end of the last closed window.
func (f *WindowFold[V]) Open() time.Duration { return f.open }

// End is the fold's virtual end: the finish time once finished (or the end
// of a later closed window), else the end of the last closed window.
func (f *WindowFold[V]) End() time.Duration {
	if f.finished {
		return f.end
	}
	return f.open
}

// Closed counts every closed window, including those evicted from the ring.
func (f *WindowFold[V]) Closed() int { return f.total }

// Stored counts the windows the ring retains.
func (f *WindowFold[V]) Stored() int { return len(f.ring) }

// Windows returns the retained closed windows, oldest first (never nil).
func (f *WindowFold[V]) Windows() []Window {
	out := make([]Window, 0, len(f.ring))
	out = append(out, f.ring[f.head:]...)
	return append(out, f.ring[:f.head]...)
}

// Violations returns the kept violations (never nil, so JSON consumers see
// [] rather than null).
func (f *WindowFold[V]) Violations() []V {
	return append(make([]V, 0, len(f.violations)), f.violations...)
}

// ViolationCount counts every violation, including those past the
// retention bound.
func (f *WindowFold[V]) ViolationCount() int { return f.violCount }

// Horizon is the verdict ring one windowed bound is judged over: whether
// each of the last Len() windows that had data violated the bound, and the
// breach latch that turns a run of breaching judgements into one episode.
type Horizon struct {
	recent   []bool // recent[(pos-Filled()+i) mod Len()], oldest first
	n, pos   int
	bad      int
	inBreach bool
}

// NewHorizon builds a ring over the last over windows (at least one).
func NewHorizon(over int) Horizon {
	return Horizon{recent: make([]bool, max(over, 1))}
}

// Push slides one window's verdict into the ring, evicting the oldest once
// the ring is full.
func (h *Horizon) Push(violating bool) {
	if h.n == len(h.recent) {
		if h.recent[h.pos] {
			h.bad--
		}
	} else {
		h.n++
	}
	h.recent[h.pos] = violating
	if violating {
		h.bad++
	}
	h.pos = (h.pos + 1) % len(h.recent)
}

// Bad counts the violating verdicts in the ring.
func (h *Horizon) Bad() int { return h.bad }

// Filled counts the verdicts in the ring: Len() once it is full.
func (h *Horizon) Filled() int { return h.n }

// Len is the ring's capacity, the horizon in windows.
func (h *Horizon) Len() int { return len(h.recent) }

// Judge latches the bound's breach state and reports a breach onset: true
// when breach holds and the previous judgement did not.
func (h *Horizon) Judge(breach bool) (onset bool) {
	onset = breach && !h.inBreach
	h.inBreach = breach
	return onset
}

// InBreach reports the latched breach state.
func (h *Horizon) InBreach() bool { return h.inBreach }
