package obs

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"nvmcp/internal/sim"
)

// allocEvents is how many events one measured run publishes, so that block
// growth is amortised the way a long run amortises it.
const allocEvents = 10_000

func emitBatch(r *Recorder, names []string) {
	for i := 0; i < allocEvents; i++ {
		r.Log(EvChunkCommit, names[i%len(names)], 4096,
			Int("seq", int64(i)), Int("version", 1), Str("source", "local"))
	}
}

func chunkNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("field%d", i)
	}
	return names
}

// TestEmitAllocations pins the typed publication path: with or without a
// tap, an event costs the log a row and interned ids, not an allocation.
func TestEmitAllocations(t *testing.T) {
	names := chunkNames(16)
	for _, tapped := range []bool{false, true} {
		o := New(sim.NewEnv())
		var seqs int64
		if tapped {
			o.AddEventTap(func(ev Event) {
				v, _ := ev.Attrs.Int("seq")
				seqs += v
			})
		}
		r := o.Recorder(0, "rank0")
		perRun := testing.AllocsPerRun(5, func() { emitBatch(r, names) })
		if per := perRun / allocEvents; per >= 0.01 {
			t.Errorf("tap=%v: %.4f allocations per event (%.0f per %d), want < 0.01",
				tapped, per, perRun, allocEvents)
		}
		if tapped && seqs == 0 {
			t.Error("tap saw no seq attributes")
		}
	}
}

// TestReadAllocations pins the read side: counting allocates nothing, and a
// copy of the whole log costs O(1) allocations, not one per event.
func TestReadAllocations(t *testing.T) {
	o := New(sim.NewEnv())
	emitBatch(o.Recorder(0, "rank0"), chunkNames(16))
	if n := testing.AllocsPerRun(5, func() { o.EventCount(EvChunkCommit) }); n != 0 {
		t.Errorf("EventCount: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() { o.Events() }); n > 3 {
		t.Errorf("Events: %.0f allocations for %d events, want O(1)", n, allocEvents)
	}
}

// TestLogBlocksRoundTrip publishes across several blocks, with attribute
// counts that close blocks early, and reads every field back.
func TestLogBlocksRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	var want []Event
	for i := 0; i < 3*firstBlockRows+17; i++ {
		ev := Event{
			TUS: int64(i), Type: EvChunkShipped, Node: i % 7, Actor: fmt.Sprintf("rank%d", i%3),
			Chunk: fmt.Sprintf("c%d", i%5), Bytes: int64(i * 3),
		}
		for k := 0; k < i%6; k++ {
			if k%2 == 0 {
				ev.Attrs = append(ev.Attrs, Int(fmt.Sprintf("k%d", k), int64(-i*k)))
			} else {
				ev.Attrs = append(ev.Attrs, Str(fmt.Sprintf("k%d", k), fmt.Sprint("v", i)))
			}
		}
		if i%11 == 0 {
			ev.Type, ev.Actor, ev.Chunk = EvIteration, "", ""
		}
		want = append(want, ev)
		env.At(time.Duration(i)*time.Microsecond, func() { o.Emit(ev) })
	}
	env.Run()
	got := o.Events()
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	if len(o.events.blocks) < 3 {
		t.Fatalf("%d events fit %d blocks; the test means to cross blocks", len(want), len(o.events.blocks))
	}
	if n := o.EventCount(EvIteration); n != (len(want)+10)/11 {
		t.Fatalf("EventCount(iteration) = %d, want %d", n, (len(want)+10)/11)
	}
	if n := o.EventCount(EvRestore); n != 0 {
		t.Fatalf("EventCount of an unseen type = %d", n)
	}
}

// TestSnapshotReadsWhilePublishing reads the log from other goroutines
// while it grows: every snapshot is a prefix of the publication order with
// intact attributes (run with -race).
func TestSnapshotReadsWhilePublishing(t *testing.T) {
	o := New(sim.NewEnv())
	names := chunkNames(64)
	const total = 5 * firstBlockRows * 8
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := o.Recorder(0, "rank0")
		for i := 0; i < total; i++ {
			r.Log(EvChunkCommit, names[i%len(names)], int64(i), Int("seq", int64(i)), Str("n", names[i%7]))
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, ev := range o.Events() {
					seq, _ := ev.Attrs.Int("seq")
					if ev.Bytes != int64(i) || seq != int64(i) || ev.Chunk != names[i%len(names)] || ev.Attrs.Str("n") != names[i%7] {
						t.Errorf("snapshot event %d = %+v", i, ev)
						return
					}
				}
				if err := o.WriteEventsJSONL(io.Discard); err != nil {
					t.Error(err)
					return
				}
				o.EventCount(EvChunkCommit)
			}
		}()
	}
	<-done
	wg.Wait()
	if n := o.EventCount(EvChunkCommit); n != total {
		t.Fatalf("EventCount = %d, want %d", n, total)
	}
}
