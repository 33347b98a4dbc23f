package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
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
// testing.AllocsPerRun counts every malloc in the process, the runtime's
// own included, so the heap is collected first (a first GC cycle's start-up
// allocations then fall outside the measured calls) and enough runs are
// measured that a stray runtime malloc divides away.
func TestReadAllocations(t *testing.T) {
	const runs = 100
	o := New(sim.NewEnv())
	emitBatch(o.Recorder(0, "rank0"), chunkNames(16))
	runtime.GC()
	if n := testing.AllocsPerRun(runs, func() { o.EventCount(EvChunkCommit) }); n != 0 {
		t.Errorf("EventCount: %.0f allocations, want 0", n)
	}
	runtime.GC()
	if n := testing.AllocsPerRun(runs, func() { o.Events() }); n > 3 {
		t.Errorf("Events: %.0f allocations for %d events, want O(1)", n, allocEvents)
	}
}

// TestLogBlocksRoundTrip publishes across several byte blocks, with rows of
// varying attribute counts, and reads every field back.
func TestLogBlocksRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	var want []Event
	for i := 0; i < firstBlockBytes+17; i++ {
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

// TestTypeCountsSizedByTypes publishes many distinct chunk names before a
// new event type: the per-type counts grow with the types published, not
// with the string table.
func TestTypeCountsSizedByTypes(t *testing.T) {
	o := New(sim.NewEnv())
	r := o.Recorder(0, "rank0")
	for _, name := range chunkNames(10_000) {
		r.Log(EvChunkDirty, name, 1)
	}
	r.Log(EvRestore, "", 0)
	types := len(o.events.types) // "" and the two published
	if types != 3 || len(o.events.counts) != types {
		t.Fatalf("%d per-type counts for %d types (want 3 types)", len(o.events.counts), types)
	}
	if n := o.EventCount(EvRestore); n != 1 {
		t.Fatalf("EventCount(restore) = %d, want 1", n)
	}
	if n := o.EventCount(EvChunkDirty); n != 10_000 {
		t.Fatalf("EventCount(chunk_dirty) = %d, want 10000", n)
	}
}

// TestSnapshotReadsWhilePublishing reads the log from other goroutines
// while it grows: every snapshot is a prefix of the publication order with
// intact attributes (run with -race).
func TestSnapshotReadsWhilePublishing(t *testing.T) {
	o := New(sim.NewEnv())
	names := chunkNames(64)
	const total = firstBlockBytes
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
	if len(o.events.blocks) < 3 {
		t.Fatalf("%d events fit %d blocks; the test means to read while blocks open", total, len(o.events.blocks))
	}
}

// TestLogBytesPerEvent pins what the log retains per event, block capacity
// included, on a stream shaped like a fleet run's: per checkpoint round and
// rank, the iteration and checkpoint markers, each chunk's dirty, staged,
// commit, ship and buddy-commit events, some pre-copies, and the helper's
// edges, with the attribute sets their emit sites publish. Columns of int64
// cells cost about 60 bytes an event; varint rows cost about a third.
func TestLogBytesPerEvent(t *testing.T) {
	o := New(sim.NewEnv())
	l := &o.events
	tus, step := int64(2_000_000), int64(0)
	at := func() int64 {
		step++
		tus += step * 7919 % 600
		return tus
	}
	const ranks, nodes, chunks = 128, 103, 24
	for round := int64(0); round < 8; round++ {
		for rank := 0; rank < ranks; rank++ {
			node, actor := rank*nodes/ranks, fmt.Sprintf("rank%d", rank)
			buddy, seq := int64((rank*nodes/ranks+24)%nodes), round+2
			name := func(c int) (string, int64) {
				if c < 16 {
					return fmt.Sprintf("scalar-%d", c), 14818
				}
				return fmt.Sprintf("field3d-%d", c-16), 463655
			}
			l.append(at(), EvIteration, node, actor, "", 0, []Attr{Int("iter", round)})
			l.append(at(), EvCheckpointBegin, node, actor, "", 0, []Attr{Int("round", round)})
			for c := 0; c < chunks; c++ {
				chunk, size := name(c)
				l.append(at(), EvChunkDirty, node, actor, chunk, size, []Attr{Int("seq", seq)})
				l.append(at(), EvChunkStaged, node, actor, chunk, size, []Attr{Int("seq", seq)})
				l.append(at(), EvChunkCommit, node, actor, chunk, size, []Attr{Int("seq", seq), Int("version", round+1)})
			}
			l.append(at(), EvCheckpointCommit, node, actor, "", 8388596, []Attr{
				Int("round", round), Int("copied", chunks), Int("skipped", 0), Int("dur_us", 21214)})
			l.append(at(), EvRemoteTrigger, node, actor, "", 0, []Attr{Int("iter", round)})
			l.append(at(), EvHelperWake, node, "helper", "", 0, nil)
			for c := 0; c < chunks; c++ {
				chunk, size := name(c)
				if c%3 == 0 {
					l.append(at(), EvPrecopyCopy, node, actor, chunk, size, []Attr{Bool("raced", false), Int("seq", seq+1)})
				}
				l.append(at(), EvChunkShipped, node, "helper", actor+"/"+chunk, size, []Attr{Int("buddy", buddy), Int("seq", seq)})
				l.append(at(), EvRemoteChunkCommit, node, "helper", actor+"/"+chunk, size, []Attr{Int("seq", seq), Int("buddy", buddy)})
			}
			l.append(at(), EvRemoteCommit, node, "helper", "", 0, []Attr{Int("buddy", buddy)})
			l.append(at(), EvHelperSleep, node, "helper", "", 0, nil)
		}
	}
	retained := 0
	for _, b := range l.blocks {
		retained += cap(b)
	}
	per := float64(retained) / float64(l.n)
	t.Logf("%d events retain %d block bytes in %d blocks: %.1f B/event", l.n, retained, len(l.blocks), per)
	if per > 28 {
		t.Fatalf("the log retains %.1f block bytes per event, want at most 28", per)
	}
}

// fuzzRows decodes a FuzzLogRoundTrip input into events. A row is its t_us,
// node and bytes as little-endian int64s; its type, actor and chunk as
// strings (a length byte, then the bytes); a little-endian uint16 attribute
// count; and per attribute a string key, a kind byte (even: integer) and a
// little-endian int64 or a string. A short row ends the stream.
func fuzzRows(data []byte) []Event {
	var evs []Event
	short := false
	take := func(n int) []byte {
		if len(data) < n {
			short, data = true, nil
			return make([]byte, n)
		}
		p := data[:n]
		data = data[n:]
		return p
	}
	i64 := func() int64 { return int64(binary.LittleEndian.Uint64(take(8))) }
	str := func() string { return string(take(int(take(1)[0]))) }
	for len(data) > 0 {
		ev := Event{TUS: i64(), Node: int(i64()), Bytes: i64()}
		ev.Type, ev.Actor, ev.Chunk = Type(str()), str(), str()
		for n := binary.LittleEndian.Uint16(take(2)); n > 0 && !short; n-- {
			if key := str(); take(1)[0]&1 == 0 {
				ev.Attrs = append(ev.Attrs, Int(key, i64()))
			} else {
				ev.Attrs = append(ev.Attrs, Str(key, str()))
			}
		}
		if short {
			break
		}
		evs = append(evs, ev)
	}
	return evs
}

// fuzzInput encodes events in fuzzRows' form.
func fuzzInput(evs ...Event) []byte {
	var b []byte
	str := func(s string) { b = append(append(b, byte(len(s))), s...) }
	for _, ev := range evs {
		for _, v := range []int64{ev.TUS, int64(ev.Node), ev.Bytes} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		str(string(ev.Type))
		str(ev.Actor)
		str(ev.Chunk)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(ev.Attrs)))
		for _, a := range ev.Attrs {
			str(a.Key)
			if a.isInt {
				b = binary.LittleEndian.AppendUint64(append(b, 0), uint64(a.num))
			} else {
				b = append(b, 1)
				str(a.str)
			}
		}
	}
	return b
}

// FuzzLogRoundTrip holds the event log to its input: any sequence of rows
// reads back field for field through Events, each and events of every
// type, and the per-type counts and the last timestamp agree with it.
//
//	go test ./internal/obs -run '^$' -fuzz FuzzLogRoundTrip -fuzztime 60s
func FuzzLogRoundTrip(f *testing.F) {
	many := make(Attrs, 40)
	for i := range many {
		if i%2 == 0 {
			many[i] = Int(fmt.Sprint("k", i), int64(i)-20)
		} else {
			many[i] = Str(fmt.Sprint("k", i), fmt.Sprint("v", i))
		}
	}
	// A row of 2,000 ten-byte integers outgrows the first block.
	huge := make(Attrs, 2000)
	for i := range huge {
		huge[i] = Int(fmt.Sprint("h", i), math.MaxInt64-int64(i))
	}
	for _, seed := range [][]Event{
		{{TUS: 1, Type: EvChunkCommit, Node: 3, Actor: "rank3", Chunk: "scalar-0", Bytes: math.MinInt64,
			Attrs: Attrs{Int("min", math.MinInt64), Int("max", math.MaxInt64)}},
			{TUS: 2, Type: EvChunkCommit, Bytes: math.MaxInt64, Attrs: Attrs{Int("max", math.MinInt64)}}},
		{{Node: -1}, {Node: math.MinInt32}, {Node: math.MaxInt32}, {Node: math.MaxInt32 + 1}, {Node: math.MinInt32 - 1}},
		{{TUS: 100, Type: EvIteration, Attrs: Attrs{Int("iter", 1)}}, {TUS: 5, Type: EvIteration}, {TUS: -7}, {TUS: math.MaxInt64}, {TUS: math.MinInt64}, {TUS: 3}},
		{{TUS: 9, Type: EvHelperWake, Actor: "helper"}, {TUS: 9, Type: EvRestore, Chunk: "c", Attrs: many}},
		{{Type: "", Actor: "", Chunk: "", Attrs: Attrs{Str("", ""), Str("k", ""), Int("", 0)}}},
		{{TUS: 10, Type: EvChunkShipped, Chunk: "a"}, {TUS: 11, Type: EvChunkShipped, Attrs: huge},
			{TUS: 12, Type: EvRemoteCommit, Attrs: Attrs{Int("buddy", 4)}}},
	} {
		f.Add(fuzzInput(seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := fuzzRows(data)
		o := New(sim.NewEnv())
		for _, ev := range want {
			o.events.append(ev.TUS, ev.Type, ev.Node, ev.Actor, ev.Chunk, ev.Bytes, ev.Attrs)
		}
		if got := o.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Events = %+v, want %+v", got, want)
		}
		var each []Event
		v := o.view("")
		v.each(func(ev Event) error {
			ev.Attrs = slices.Clone(ev.Attrs)
			each = append(each, ev)
			return nil
		})
		if !reflect.DeepEqual(each, want) {
			t.Fatalf("each = %+v, want %+v", each, want)
		}
		types := map[Type]bool{"\xff never published": true}
		for _, ev := range want {
			types[ev.Type] = true
		}
		for typ := range types {
			var of []Event
			for _, ev := range want {
				if typ == "" || ev.Type == typ {
					of = append(of, ev)
				}
			}
			v := o.view(typ)
			if got := v.events(); !reflect.DeepEqual(got, of) {
				t.Fatalf("events(%q) = %+v, want %+v", typ, got, of)
			}
			if n := o.EventCount(typ); n != len(of) {
				t.Fatalf("EventCount(%q) = %d, want %d", typ, n, len(of))
			}
		}
		var last int64
		if len(want) > 0 {
			last = want[len(want)-1].TUS
		}
		if tus, n := o.Progress(); tus != last || n != len(want) {
			t.Fatalf("Progress = (%d, %d), want (%d, %d)", tus, n, last, len(want))
		}
	})
}
