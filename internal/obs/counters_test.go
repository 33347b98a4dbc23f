package obs

import (
	"reflect"
	"testing"

	"nvmcp/internal/sim"
)

var testCounters = NewCounterSet("pre_", "hits", "bytes", "local").Private(2)

func TestCountRegistersOnFirstAdd(t *testing.T) {
	o := New(sim.NewEnv())
	cs := testCounters.New()
	cs.SetRecorder(o.Recorder(1, "rank1"))
	if got := o.Registry().Flatten(); len(got) != 0 {
		t.Fatalf("attaching a recorder registered %v", got)
	}
	cs[0].Add(0)
	want := map[string]float64{`pre_hits{actor="rank1",node="1"}`: 0, "pre_hits": 0}
	if got := o.Registry().Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Add(0): registry = %v, want %v", got, want)
	}
	cs[0].Add(3)
	cs[1].Add(7)
	cs[2].Add(5)
	want = map[string]float64{
		`pre_hits{actor="rank1",node="1"}`: 3, "pre_hits": 3,
		`pre_bytes{actor="rank1",node="1"}`: 7, "pre_bytes": 7,
	}
	if got := o.Registry().Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry = %v, want %v (private counters stay out)", got, want)
	}
	if cs.Get("hits") != 3 || cs.Get("bytes") != 7 || cs.Get("local") != 5 {
		t.Fatalf("by-name totals = %d/%d/%d, want 3/7/5",
			cs.Get("hits"), cs.Get("bytes"), cs.Get("local"))
	}
}

func TestCountWithoutRecorderCountsPrivately(t *testing.T) {
	cs := testCounters.New()
	cs[0].Add(2)
	cs[0].Add(4)
	if got := cs[0].Get(); got != 6 {
		t.Fatalf("handle total = %d, want 6", got)
	}
	if got := cs.Get("hits"); got != 6 {
		t.Fatalf("Get(hits) = %d, want 6", got)
	}
	if got := cs.Get("missing"); got != 0 {
		t.Fatalf("Get(missing) = %d, want 0", got)
	}
	cs.SetRecorder(nil)
	cs[0].Add(1)
	if got := cs.Get("hits"); got != 7 {
		t.Fatalf("after a nil recorder: Get(hits) = %d, want 7", got)
	}
}

// TestCountAttachKeepsTotal pins what a late attach books: the component's
// own total keeps every delta, the registry only those after the attach.
func TestCountAttachKeepsTotal(t *testing.T) {
	o := New(sim.NewEnv())
	cs := testCounters.New()
	cs[0].Add(10)
	cs.SetRecorder(o.Recorder(0, "rank0"))
	cs[0].Add(1)
	if got := cs.Get("hits"); got != 11 {
		t.Fatalf("Get(hits) = %d, want 11", got)
	}
	if got := o.Registry().Counter("pre_hits", nil).Get(); got != 1 {
		t.Fatalf("rollup = %d, want 1", got)
	}
}

// TestCountBooksLikeRecorderAdd holds a handle to Recorder.Add's contract:
// the same deltas leave the same scoped series and rollup.
func TestCountBooksLikeRecorderAdd(t *testing.T) {
	viaAdd, viaCount := New(sim.NewEnv()), New(sim.NewEnv())
	cs := NewCounterSet("", "ckpt_bytes").New()
	cs.SetRecorder(viaCount.Recorder(3, "rank7"))
	r := viaAdd.Recorder(3, "rank7")
	for _, d := range []int64{0, 5, 12} {
		r.Add("ckpt_bytes", d)
		cs[0].Add(d)
	}
	if a, b := viaAdd.Registry().Flatten(), viaCount.Registry().Flatten(); !reflect.DeepEqual(a, b) {
		t.Fatalf("Recorder.Add booked %v, Count booked %v", a, b)
	}
}
