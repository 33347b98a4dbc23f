package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Reference sampling: every timed run is bracketed by batches of refPerRun
// reference samples (at least minRefBatch, and at least minRefSamples over
// a workload's fixed run count), and scaled by the median of the two
// batches on either side of it.
//
// On the reference host, speed swings by up to 40% within seconds. Scaling
// each run by its own neighbouring batches, rather than the whole
// invocation by one median, cut the spread of the gtc-paper wall_s median
// over ten invocations from 7% to 1.5%.
const (
	minRefSamples = 30
	minRefBatch   = 3
)

// minTimedRuns is the least number of timed runs of a -seconds pass, so the
// median of a workload with long runs still outvotes one run caught in a
// slow spell of the host.
const minTimedRuns = 3

// minSetupSamples is the least number of set-up timings behind setup_s; a
// workload with fewer timed runs adds set-up-only passes.
const minSetupSamples = 15

// cpuTime is the process's user+sys CPU time so far, GC workers included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// budget bounds a pass: a fixed run count, or, when seconds > 0, as many
// runs as start within that many seconds but at least minRuns (and always
// at least one).
type budget struct {
	runs    int
	seconds float64
	minRuns int
}

func (b budget) more(i int, elapsed time.Duration) bool {
	if i == 0 {
		return true
	}
	if b.seconds > 0 {
		return i < b.minRuns || elapsed.Seconds() < b.seconds
	}
	return i < b.runs
}

// session measures one workload at one seed. It owns the plain-twin
// checksums, the digest every run must reproduce, the reference samples and
// the correctness tally.
type session struct {
	w      workload
	seed   int64
	twins  []uint64
	digest uint64
	// refPerRun is the size of each reference batch around a timed run.
	refPerRun int
	refs      []float64
	// counts are the work counts of the last untraced run that passed.
	counts workCounts

	attempted, failed int
	problems          []string
}

// newSession runs the plain twins and one untimed warm-up run, whose digest
// becomes the one the timed runs must match.
func newSession(w workload, seed int64) (*session, error) {
	twins, err := twinChecksums(w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	s := &session{w: w, seed: seed, twins: twins,
		refPerRun: max(minRefBatch, (minRefSamples+w.runs-1)/w.runs)}
	warm := s.run(false)
	s.digest = warm.digest
	return s, nil
}

// run makes one checked run and tallies its outcome.
func (s *session) run(traced bool) sample {
	r := runOnce(s.w, s.seed, s.twins, traced)
	if r.problem == "" && s.attempted > 0 && r.digest != s.digest {
		r.problem = fmt.Sprintf("result digest %016x differs from the warm-up run's %016x", r.digest, s.digest)
	}
	s.attempted++
	if r.problem != "" {
		s.failed++
		if len(s.problems) < 5 {
			s.problems = append(s.problems, r.problem)
		}
	}
	return r
}

// timedRuns runs the workload until b is spent and returns the runs that
// passed every check; failed runs are only tallied. Unless traced, each run
// is bracketed by reference batches, its ref is their median, and the last
// passing run's work counts are kept.
func (s *session) timedRuns(b budget, traced bool) ([]sample, error) {
	var out []sample
	var before []float64
	if !traced {
		before = s.refBatch(s.refPerRun)
	}
	start := time.Now()
	for i := 0; b.more(i, time.Since(start)); i++ {
		r := s.run(traced)
		if !traced {
			after := s.refBatch(s.refPerRun)
			r.ref = median(append(append([]float64(nil), before...), after...))
			before = after
		}
		if r.problem == "" {
			out = append(out, r)
			if !traced {
				s.counts = r.counts
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: every timed run failed, first: %s", s.w.name, s.problems[0])
	}
	return out, nil
}

// refBatch takes n reference samples, in seconds.
func (s *session) refBatch(n int) []float64 {
	rs := make([]float64, n)
	for k := range rs {
		rs[k] = refKernel()
	}
	s.refs = append(s.refs, rs...)
	return rs
}

// setupOnly times one set-up of every scenario in the workload, between two
// small reference batches, without executing it.
func (s *session) setupOnly() (sample, error) {
	var r sample
	before := s.refBatch(minRefBatch)
	runtime.GC()
	start := time.Now()
	scs, err := s.w.scenarios(s.seed)
	if err != nil {
		return r, err
	}
	for _, sc := range scs {
		if _, err := s.w.newCluster(sc); err != nil {
			return r, err
		}
	}
	r.setup = time.Since(start)
	r.ref = median(append(before, s.refBatch(minRefBatch)...))
	return r, nil
}

// stats summarises one metric's samples.
type stats struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// PHigh is the highest percentile (PHighPct) with at least ten samples
	// beyond it; it is reported only when N >= 20.
	PHigh    float64   `json:"p_high,omitempty"`
	PHighPct float64   `json:"p_high_pct,omitempty"`
	Samples  []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) stats {
	q1, q3 := quartiles(xs)
	st := stats{Unit: unit, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Samples: xs}
	if len(xs) >= 20 {
		st.PHighPct, st.PHigh = highPercentile(xs)
	}
	return st
}

// spread is the interquartile distance as a share of the median.
func (st stats) spread() float64 {
	if st.Median == 0 {
		return 0
	}
	return math.Abs(st.Q3-st.Q1) / math.Abs(st.Median)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// exclusive method), so spreads read the same in either tool.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// highPercentile is the highest of the usual reporting percentiles with at
// least ten samples beyond it (nearest rank).
func highPercentile(xs []float64) (pct, v float64) {
	s := sorted(xs)
	rank := func(p float64) int { // nearest rank, 1-based
		return max(1, int(math.Ceil(p/100*float64(len(s))-1e-9)))
	}
	pct = 50
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if len(s)-rank(p) >= 10 {
			pct = p
		}
	}
	return pct, s[rank(pct)-1]
}

// e2eMetric names an end-to-end metric and its unit, in BENCHMARK.json order.
type e2eMetric struct{ name, unit string }

var e2eMetrics = []e2eMetric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"mallocs", "count"},
	{"alloc_mb", "MiB"},
	{"live_heap_mb", "MiB"},
}

// endToEnd is a workload's end-to-end pass.
type endToEnd struct {
	Metrics map[string]stats `json:"metrics"`
	// RawWallMedianS and RawSetupMedianS are the unscaled medians.
	RawWallMedianS  float64 `json:"raw_wall_median_s"`
	RawSetupMedianS float64 `json:"raw_setup_median_s"`
}

// measureEndToEnd runs the end-to-end pass: timed runs under b, each
// bracketed by reference batches, then set-up-only passes until setup_s has
// minSetupSamples timings.
func (s *session) measureEndToEnd(b budget) (endToEnd, error) {
	runs, err := s.timedRuns(b, false)
	if err != nil {
		return endToEnd{}, err
	}
	setupRuns := append([]sample(nil), runs...)
	for len(setupRuns) < minSetupSamples {
		r, err := s.setupOnly()
		if err != nil {
			return endToEnd{}, fmt.Errorf("%s: set-up: %w", s.w.name, err)
		}
		setupRuns = append(setupRuns, r)
	}
	col := func(rs []sample, get func(sample) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = get(r)
		}
		return out
	}
	// refScaled reads a duration in reference-host seconds.
	refScaled := func(d time.Duration, r sample) float64 { return d.Seconds() * refNominalS / r.ref }
	const mib = 1 << 20
	values := map[string][]float64{
		"wall_s":  col(runs, func(r sample) float64 { return refScaled(r.wall, r) }),
		"cpu_s":   col(runs, func(r sample) float64 { return refScaled(r.cpu, r) }),
		"setup_s": col(setupRuns, func(r sample) float64 { return refScaled(r.setup, r) }),
		"events_per_s": col(runs, func(r sample) float64 {
			return float64(r.counts.events) / refScaled(r.wall, r)
		}),
		"mallocs":      col(runs, func(r sample) float64 { return float64(r.mallocs) }),
		"alloc_mb":     col(runs, func(r sample) float64 { return float64(r.allocBytes) / mib }),
		"live_heap_mb": col(runs, func(r sample) float64 { return float64(r.liveBytes) / mib }),
	}
	out := endToEnd{
		Metrics:         map[string]stats{},
		RawWallMedianS:  median(col(runs, func(r sample) float64 { return r.wall.Seconds() })),
		RawSetupMedianS: median(col(setupRuns, func(r sample) float64 { return r.setup.Seconds() })),
	}
	for _, m := range e2eMetrics {
		out.Metrics[m.name] = summarize(m.unit, values[m.name])
	}
	return out, nil
}
