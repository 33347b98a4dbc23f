package obs

import (
	"math"
	"testing"
	"time"
)

func TestTimelineAt(t *testing.T) {
	var tl Timeline
	tl.Set(0, 0)
	tl.Set(time.Second, 100)
	tl.Set(3*time.Second, 50)
	tl.Set(5*time.Second, 0)
	if v := tl.At(500 * time.Millisecond); v != 0 {
		t.Fatalf("At(0.5s) = %v, want 0", v)
	}
	if v := tl.At(2 * time.Second); v != 100 {
		t.Fatalf("At(2s) = %v, want 100", v)
	}
	if v := tl.At(10 * time.Second); v != 0 {
		t.Fatalf("At(10s) = %v, want 0", v)
	}
}

func TestTimelineOverwriteSameInstant(t *testing.T) {
	var tl Timeline
	tl.Set(time.Second, 10)
	tl.Set(time.Second, 20)
	if tl.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after overwrite", tl.Len())
	}
	if v := tl.At(time.Second); v != 20 {
		t.Fatalf("At = %v, want 20", v)
	}
}

func TestTimelinePastSetPanics(t *testing.T) {
	var tl Timeline
	tl.Set(2*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Set in the past did not panic")
		}
	}()
	tl.Set(time.Second, 2)
}

// TestTimelinePartialLastBucket pins DiffBuckets' last bucket when end is
// not a multiple of the width: it covers only [lo, end).
func TestTimelinePartialLastBucket(t *testing.T) {
	var tl Timeline
	tl.Set(0, 0)
	tl.Set(2200*time.Millisecond, 30)
	tl.Set(2600*time.Millisecond, 70)
	got := tl.DiffBuckets(2500*time.Millisecond, time.Second)
	want := []float64{0, 0, 30}
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DiffBuckets = %v, want %v", got, want)
		}
	}
}

func TestMeterUtilization(t *testing.T) {
	var m Meter
	m.Start(0)
	m.Stop(time.Second)
	m.Start(2 * time.Second)
	m.Stop(3 * time.Second)
	if b := m.Busy(4 * time.Second); b != 2*time.Second {
		t.Fatalf("Busy = %v, want 2s", b)
	}
	if u := m.Utilization(4 * time.Second); u != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
}

func TestMeterOpenInterval(t *testing.T) {
	var m Meter
	m.Start(time.Second)
	if b := m.Busy(3 * time.Second); b != 2*time.Second {
		t.Fatalf("open Busy = %v, want 2s", b)
	}
}

func TestMeterMisusePanics(t *testing.T) {
	var m Meter
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Stop while idle did not panic")
			}
		}()
		m.Stop(time.Second)
	}()
	m.Start(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Start did not panic")
			}
		}()
		m.Start(time.Second)
	}()
}

// TestTimelineSetEdgeCases pins Set's contract as a table: steps at strictly
// increasing times append, a Set at the same instant overwrites in place, and
// a NaN value is stored verbatim (the timeline is a dumb recorder; callers
// that cannot tolerate NaN must filter before Set). Sets in the past panic —
// that case is pinned separately in TestTimelinePastSetPanics, and the
// zero-width window panic in TestTimelineZeroWidthWindowPanics: both are
// intentional, since either would silently corrupt every derived series.
func TestTimelineSetEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		sets []struct {
			at time.Duration
			v  float64
		}
		wantLen int
		at      time.Duration
		want    float64
		wantNaN bool
	}{
		{
			name: "strictly increasing appends",
			sets: []struct {
				at time.Duration
				v  float64
			}{{0, 1}, {time.Second, 2}, {2 * time.Second, 3}},
			wantLen: 3, at: 90 * time.Minute, want: 3,
		},
		{
			name: "same instant overwrites",
			sets: []struct {
				at time.Duration
				v  float64
			}{{time.Second, 1}, {time.Second, 7}},
			wantLen: 2, at: time.Second, want: 7,
		},
		{
			name: "zero duration step",
			sets: []struct {
				at time.Duration
				v  float64
			}{{0, 5}},
			wantLen: 1, at: 0, want: 5,
		},
		{
			name: "NaN stored verbatim",
			sets: []struct {
				at time.Duration
				v  float64
			}{{time.Second, math.NaN()}},
			wantLen: 1, at: 2 * time.Second, wantNaN: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tl Timeline
			if c.wantLen == 2 && len(c.sets) == 2 && c.sets[0].at == c.sets[1].at {
				// Overwrite case records one step plus a leading one so the
				// overwrite is observable as not-append.
				tl.Set(0, 0)
			}
			for _, s := range c.sets {
				tl.Set(s.at, s.v)
			}
			if tl.Len() != c.wantLen {
				t.Fatalf("Len = %d, want %d", tl.Len(), c.wantLen)
			}
			got := tl.At(c.at)
			if c.wantNaN {
				if !math.IsNaN(got) {
					t.Fatalf("At(%v) = %v, want NaN", c.at, got)
				}
				return
			}
			if got != c.want {
				t.Fatalf("At(%v) = %v, want %v", c.at, got, c.want)
			}
		})
	}
}

// TestTimelineZeroWidthWindowPanics documents that a zero (or negative)
// bucket width is a programming error, not an empty result: DiffBuckets and
// PeakDiffBucket panic rather than looping forever or returning garbage.
func TestTimelineZeroWidthWindowPanics(t *testing.T) {
	var tl Timeline
	tl.Set(0, 1)
	for name, call := range map[string]func(){
		"zero":     func() { tl.DiffBuckets(time.Second, 0) },
		"negative": func() { tl.DiffBuckets(time.Second, -time.Second) },
		"peak":     func() { tl.PeakDiffBucket(time.Second, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with zero/negative width did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestTimelineDiffBucketsExactEdges pins the windowing boundary convention:
// a cumulative step landing exactly on a bucket edge belongs to the earlier
// window (DiffBuckets samples At(edge), and At treats steps as effective at
// their own timestamp).
func TestTimelineDiffBucketsExactEdges(t *testing.T) {
	var tl Timeline
	tl.Set(0, 0)
	tl.Set(10*time.Second, 100) // exactly on the first bucket edge
	tl.Set(15*time.Second, 250)
	got := tl.DiffBuckets(20*time.Second, 10*time.Second)
	want := []float64{100, 150}
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}
