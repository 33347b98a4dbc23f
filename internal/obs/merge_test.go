package obs

import (
	"runtime"
	"testing"
	"time"

	"nvmcp/internal/sim"
)

// buildShardObs makes an observer whose env ran to a given time with events
// at the given microsecond stamps.
func buildShardObs(t *testing.T, stamps []int64, counter int64) *Observer {
	t.Helper()
	env := sim.NewEnv()
	o := New(env)
	for _, us := range stamps {
		at := time.Duration(us) * time.Microsecond
		env.At(at, func() {
			o.Emit(Event{Type: EvIteration, Attrs: Attrs{Str("src", "x")}})
		})
	}
	env.Run()
	o.Registry().Counter("widgets", nil).Add(counter)
	o.Registry().Gauge("level", nil).Set(float64(counter))
	return o
}

func TestMergeShardsEventOrderAndCounters(t *testing.T) {
	a := buildShardObs(t, []int64{10, 30, 30}, 2)
	b := buildShardObs(t, []int64{20, 30}, 5)
	env := sim.NewEnv()
	env.RunUntil(40 * time.Microsecond)
	dst := New(env)
	MergeShards(dst, []*Observer{a, b})

	evs := dst.Events()
	gotTUS := make([]int64, len(evs))
	for i, ev := range evs {
		gotTUS[i] = ev.TUS
	}
	// Ties at 30us resolve by shard index: both of shard 0's events come
	// before shard 1's.
	want := []int64{10, 20, 30, 30, 30}
	if len(gotTUS) != len(want) {
		t.Fatalf("merged %d events, want %d", len(gotTUS), len(want))
	}
	for i := range want {
		if gotTUS[i] != want[i] {
			t.Fatalf("event %d at %dus, want %dus (full: %v)", i, gotTUS[i], want[i], gotTUS)
		}
	}
	if n := dst.Registry().Counter("widgets", nil).Get(); n != 7 {
		t.Fatalf("merged counter = %d, want 7", n)
	}
	if v := dst.Registry().Gauge("level", nil).Get(); v != 5 {
		t.Fatalf("merged gauge = %g, want last shard's 5", v)
	}
}

// TestMergeShardsPublishesThroughTaps holds the merge to the bus contract:
// a tap on the coordinator sees every merged event once, in the merged
// order, stamped at its own virtual time with no interval start, and the
// merged registry is already readable when the first event arrives.
func TestMergeShardsPublishesThroughTaps(t *testing.T) {
	a := buildShardObs(t, []int64{10, 30, 30}, 2)
	b := buildShardObs(t, []int64{20, 30}, 5)
	dst := New(sim.NewEnv())
	type seen struct {
		tus     int64
		at      time.Duration
		start   time.Duration
		src     string
		widgets int64
	}
	var got []seen
	dst.AddEventTap(func(ev Event) {
		got = append(got, seen{ev.TUS, ev.At, ev.Start, ev.Attrs.Str("src"),
			dst.Registry().Counter("widgets", nil).Get()})
	})
	MergeShards(dst, []*Observer{a, b})

	evs := dst.Events()
	if len(got) != len(evs) {
		t.Fatalf("tap saw %d events, the merged log holds %d", len(got), len(evs))
	}
	for i, ev := range evs {
		g := got[i]
		if g.tus != ev.TUS || g.at != ev.Time() || g.start != 0 || g.src != "x" {
			t.Fatalf("tap event %d = %+v, want the log's event at %dus with its attrs and no start", i, g, ev.TUS)
		}
		if g.widgets != 7 {
			t.Fatalf("tap event %d read widgets = %d, want the merged 7", i, g.widgets)
		}
	}
	if tus, n := dst.Progress(); tus != 30 || n != 5 {
		t.Fatalf("progress after merge = (%dus, %d events), want (30us, 5)", tus, n)
	}
}

func TestMergeShardsSumsTimelines(t *testing.T) {
	mk := func(points map[time.Duration]float64) *Observer {
		env := sim.NewEnv()
		o := New(env)
		tl := o.Registry().Timeline("bytes", Labels{"class": "ckpt"})
		var ts []time.Duration
		for at := range points {
			ts = append(ts, at)
		}
		// insert in ascending order (timelines only append)
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if ts[j] < ts[i] {
					ts[i], ts[j] = ts[j], ts[i]
				}
			}
		}
		for _, at := range ts {
			tl.Set(at, points[at])
		}
		return o
	}
	// Cumulative series: shard A moves 100 bytes at 1s and 250 by 3s;
	// shard B moves 40 at 2s.
	a := mk(map[time.Duration]float64{1 * time.Second: 100, 3 * time.Second: 250})
	b := mk(map[time.Duration]float64{2 * time.Second: 40})
	// A second label set of the same name stays its own series: the merge
	// keys timelines by name and canonical labels.
	a.Registry().Timeline("bytes", Labels{"class": "app"}).Set(5*time.Second, 7)
	dst := New(sim.NewEnv())
	MergeShards(dst, []*Observer{a, b})
	if app := dst.Registry().Timeline("bytes", Labels{"class": "app"}); app.At(4*time.Second) != 0 || app.At(5*time.Second) != 7 {
		t.Fatalf("merged app timeline = %g at 4s, %g at 5s; want 0, 7", app.At(4*time.Second), app.At(5*time.Second))
	}
	tl := dst.Registry().Timeline("bytes", Labels{"class": "ckpt"})
	checks := map[time.Duration]float64{
		500 * time.Millisecond: 0,
		1 * time.Second:        100,
		2 * time.Second:        140,
		3 * time.Second:        290,
		10 * time.Second:       290,
	}
	for at, want := range checks {
		if got := tl.At(at); got != want {
			t.Fatalf("merged timeline at %v = %g, want %g", at, got, want)
		}
	}
}

func TestEngineWarnReachesBus(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	env.Schedule(time.Millisecond, func() {
		env.Schedule(-time.Millisecond, func() {})
	})
	env.Run()
	if n := o.EventCount(EvEngineWarn); n != 1 {
		t.Fatalf("engine warnings on bus = %d, want 1", n)
	}
	evs := o.Events()
	last := evs[len(evs)-1]
	if code := last.Attrs.Str("code"); code != "negative-delay" {
		t.Fatalf("warn code = %q", code)
	}
}

// TestMergeShardsStreams holds the merge to one decoded event per shard:
// folding two shards of 20,000 events each allocates the destination log's
// blocks and a fixed few kilobytes besides, not a copy of either stream.
func TestMergeShardsStreams(t *testing.T) {
	const perShard = 20_000
	shards := make([]*Observer, 2)
	for s := range shards {
		o := New(sim.NewEnv())
		for i := 0; i < perShard; i++ {
			o.events.append(int64(2*i+s), EvChunkShipped, s, "helper", "rank0/scalar-0", 14818,
				[]Attr{Int("buddy", int64(1-s)), Int("seq", int64(i))})
		}
		shards[s] = o
	}
	dst := New(sim.NewEnv())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MergeShards(dst, shards)
	runtime.ReadMemStats(&after)

	if n := dst.EventCount(EvChunkShipped); n != 2*perShard {
		t.Fatalf("merged %d events, want %d", n, 2*perShard)
	}
	logBytes := uint64(0)
	for _, b := range dst.events.blocks {
		logBytes += uint64(cap(b))
	}
	if extra := after.TotalAlloc - before.TotalAlloc - logBytes; extra > 64<<10 {
		t.Fatalf("merging %d events allocated %d bytes beyond the destination log's %d: the merge copies its input",
			2*perShard, extra, logBytes)
	}
	for i, ev := range dst.Events() {
		if seq, _ := ev.Attrs.Int("seq"); ev.TUS != int64(i) || ev.Node != i%2 || seq != int64(i/2) {
			t.Fatalf("merged event %d = %+v, want shard %d's event %d at %dus", i, ev, i%2, i/2, i)
		}
	}
}
