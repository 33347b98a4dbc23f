package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// spanFold is a fold over 5s windows whose close function records each
// window's span and sets one value, the window's width in seconds.
func spanFold(maxWindows, maxViolations int) (*WindowFold[string], *[][2]time.Duration) {
	var spans [][2]time.Duration
	f := NewWindowFold[string](5*time.Second, maxWindows, maxViolations, func(w *Window, start, end time.Duration) {
		spans = append(spans, [2]time.Duration{start, end})
		w.Values = map[string]float64{"width": (end - start).Seconds()}
	})
	return f, &spans
}

func TestWindowFoldBoundaryClosesAtEnd(t *testing.T) {
	f, spans := spanFold(0, 0)
	f.Advance(4999 * time.Millisecond)
	if len(*spans) != 0 {
		t.Fatalf("closed %v before the first boundary", *spans)
	}
	// An event exactly at a boundary closes the window that ends there, and
	// a jump past several boundaries closes every window it crosses, empty
	// or not.
	f.Advance(5 * time.Second)
	f.Advance(17 * time.Second)
	want := [][2]time.Duration{{0, 5 * time.Second}, {5 * time.Second, 10 * time.Second}, {10 * time.Second, 15 * time.Second}}
	if !reflect.DeepEqual(*spans, want) {
		t.Fatalf("closed %v, want %v", *spans, want)
	}
	if f.Open() != 15*time.Second || f.End() != 15*time.Second {
		t.Fatalf("open %v end %v, want both 15s while running", f.Open(), f.End())
	}
	wins := f.Windows()
	if len(wins) != 3 || wins[2].Index != 2 || wins[2].StartUS != 10_000_000 || wins[2].EndUS != 15_000_000 {
		t.Fatalf("windows = %+v", wins)
	}
}

func TestWindowFoldFinish(t *testing.T) {
	f, spans := spanFold(0, 0)
	f.Advance(6 * time.Second)
	if !f.Finish(12*time.Second, 12*time.Second) {
		t.Fatal("first Finish reported already finished")
	}
	want := [][2]time.Duration{{0, 5 * time.Second}, {5 * time.Second, 10 * time.Second}, {10 * time.Second, 12 * time.Second}}
	if !reflect.DeepEqual(*spans, want) {
		t.Fatalf("closed %v, want two full windows and the [10s,12s) tail", *spans)
	}
	// Finished: idempotent, and later events are dropped.
	if f.Finish(40*time.Second, 40*time.Second) || f.Advance(60*time.Second) {
		t.Fatal("a finished fold accepted more time")
	}
	if f.Closed() != 3 || f.End() != 12*time.Second {
		t.Fatalf("closed %d end %v, want 3 and 12s", f.Closed(), f.End())
	}

	// No tail: the end still reaches the finish time.
	g, spans := spanFold(0, 0)
	g.Finish(12*time.Second, 0)
	if len(*spans) != 2 || g.End() != 12*time.Second {
		t.Fatalf("closed %v end %v, want two windows and end 12s", *spans, g.End())
	}

	// A tail past the finish time moves the end with it.
	h, _ := spanFold(0, 0)
	h.Finish(5*time.Second, 5*time.Second+time.Microsecond)
	if h.End() != 5*time.Second+time.Microsecond {
		t.Fatalf("end %v, want the tail's end 5.000001s", h.End())
	}
}

func TestWindowFoldRingKeepsNewest(t *testing.T) {
	f, _ := spanFold(2, 0)
	f.Advance(25 * time.Second)
	wins := f.Windows()
	if len(wins) != 2 || wins[0].Index != 3 || wins[1].Index != 4 {
		t.Fatalf("ring kept %+v, want windows 3 and 4 oldest first", wins)
	}
	if f.Closed() != 5 || f.Stored() != 2 {
		t.Fatalf("closed %d stored %d, want 5 and 2", f.Closed(), f.Stored())
	}
}

func TestWindowFoldViolationBound(t *testing.T) {
	f, _ := spanFold(0, 2)
	if got := f.Violations(); got == nil || len(got) != 0 {
		t.Fatalf("empty violations = %#v, want non-nil and empty", got)
	}
	for _, v := range []string{"a", "b", "c"} {
		f.Violate(v)
	}
	if got := f.Violations(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("kept %v, want the first two", got)
	}
	if f.ViolationCount() != 3 {
		t.Fatalf("count = %d, want 3 (counts past retention)", f.ViolationCount())
	}
}

func TestWindowFoldDefaults(t *testing.T) {
	f, _ := spanFold(0, 0)
	if f.maxWins != defaultMaxWindows || f.maxViols != defaultMaxViolations {
		t.Fatalf("bounds %d/%d, want defaults %d/%d", f.maxWins, f.maxViols, defaultMaxWindows, defaultMaxViolations)
	}
}

// TestHorizonRules holds the ring against the two breach rules its
// consumers judge with: a tolerated bad fraction of the windows seen so far
// (SLO objectives) and a full horizon of breaching windows (drift limits).
func TestHorizonRules(t *testing.T) {
	verdicts := []bool{true, false, true, true, true, false, true}
	burn := NewHorizon(2)
	streak := NewHorizon(2)
	var burnOnsets, streakOnsets []int
	for i, v := range verdicts {
		burn.Push(v)
		if burn.Judge(float64(burn.Bad())/float64(burn.Filled()) > 0.5) {
			burnOnsets = append(burnOnsets, i)
		}
		streak.Push(v)
		if streak.Judge(streak.Bad() == streak.Len()) {
			streakOnsets = append(streakOnsets, i)
		}
	}
	if !reflect.DeepEqual(burnOnsets, []int{0, 3}) {
		t.Errorf("burn onsets = %v, want [0 3]", burnOnsets)
	}
	if !reflect.DeepEqual(streakOnsets, []int{3}) {
		t.Errorf("streak onsets = %v, want [3]", streakOnsets)
	}
	if burn.Filled() != 2 || burn.Bad() != 1 || burn.InBreach() {
		t.Errorf("burn ring filled %d bad %d in breach %v, want 2, 1, false", burn.Filled(), burn.Bad(), burn.InBreach())
	}
	if h := NewHorizon(0); h.Len() != 1 {
		t.Errorf("NewHorizon(0).Len() = %d, want 1", h.Len())
	}
}

// burnRef is the SLO recorder's breach rule as it stood before Horizon: a
// ring of the last over verdicts, breaching while the violating share of
// the filled ring exceeds the tolerance.
type burnRef struct {
	recent      []bool
	n, pos, bad int
	inBreach    bool
	tol         float64
}

func (r *burnRef) push(violating bool) bool {
	if r.n == len(r.recent) {
		if r.recent[r.pos] {
			r.bad--
		}
	} else {
		r.n++
	}
	r.recent[r.pos] = violating
	if violating {
		r.bad++
	}
	r.pos = (r.pos + 1) % len(r.recent)
	breach := float64(r.bad)/float64(r.n) > r.tol+1e-9
	onset := breach && !r.inBreach
	r.inBreach = breach
	return onset
}

// streakRef is the drift observatory's limit rule as it stood before
// Horizon: a consecutive-breach streak that fires once per episode when it
// reaches over.
type streakRef struct {
	over, streak int
	fired        bool
}

func (r *streakRef) push(violating bool) bool {
	if !violating {
		r.streak, r.fired = 0, false
		return false
	}
	r.streak++
	if r.streak >= r.over && !r.fired {
		r.fired = true
		return true
	}
	return false
}

// TestHorizonMatchesReferenceRules drives random verdict sequences through
// Horizon under both consumers' breach rules and the rules' original
// implementations, which must agree at every window.
func TestHorizonMatchesReferenceRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		over := 1 + rng.Intn(6)
		tol := []float64{0, 0.25, 1.0 / 3, 0.5, 0.9}[rng.Intn(5)]
		pViolate := rng.Float64()
		burn, streak := NewHorizon(over), NewHorizon(over)
		bref := &burnRef{recent: make([]bool, over), tol: tol}
		sref := &streakRef{over: over}
		for i := 0; i < 60; i++ {
			v := rng.Float64() < pViolate
			burn.Push(v)
			got := burn.Judge(float64(burn.Bad())/float64(burn.Filled()) > tol+1e-9)
			if want := bref.push(v); got != want || burn.InBreach() != bref.inBreach {
				t.Fatalf("trial %d (over %d, tol %g) window %d: burn onset %v in breach %v, reference %v %v",
					trial, over, tol, i, got, burn.InBreach(), want, bref.inBreach)
			}
			streak.Push(v)
			got = streak.Judge(streak.Bad() == streak.Len())
			if want := sref.push(v); got != want || streak.InBreach() != sref.fired {
				t.Fatalf("trial %d (over %d) window %d: streak onset %v in breach %v, reference %v %v",
					trial, over, i, got, streak.InBreach(), want, sref.fired)
			}
		}
	}
}

// TestWindowFoldMatchesMicrosecondClock holds the fold's boundary rule to
// the drift observatory's original integer-microsecond window clock over
// random event streams and finish times, tail window included.
func TestWindowFoldMatchesMicrosecondClock(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		widthUS := int64(1 + rng.Intn(5_000_000))
		var got, want [][2]int64
		f := NewWindowFold[struct{}](time.Duration(widthUS)*time.Microsecond, 0, 0, func(w *Window, _, _ time.Duration) {
			got = append(got, [2]int64{w.StartUS, w.EndUS})
		})
		var startUS, tus int64
		for i := rng.Intn(40); i > 0; i-- {
			tus += rng.Int63n(3 * widthUS)
			f.Advance(time.Duration(tus) * time.Microsecond)
			for tus >= startUS+widthUS {
				want = append(want, [2]int64{startUS, startUS + widthUS})
				startUS += widthUS
			}
		}
		now := time.Duration(tus)*time.Microsecond + time.Duration(rng.Int63n(2*widthUS*1000))
		active := rng.Intn(2) == 0

		f.Advance(now)
		var tail time.Duration
		if active {
			tail = max(now, f.Open()+time.Microsecond)
		}
		f.Finish(now, tail)
		for now.Microseconds() >= startUS+widthUS {
			want = append(want, [2]int64{startUS, startUS + widthUS})
			startUS += widthUS
		}
		endUS := startUS
		if active {
			end := max(now.Microseconds(), startUS+1)
			want = append(want, [2]int64{startUS, end})
			endUS = end
		}
		endUS = max(endUS, now.Microseconds())

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (width %dus): fold closed %v, reference %v", trial, widthUS, got, want)
		}
		if f.End().Microseconds() != endUS {
			t.Fatalf("trial %d: fold end %dus, reference %dus", trial, f.End().Microseconds(), endUS)
		}
	}
}
