package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refMin returns the index of the (t, seq)-minimum event in live — the
// reference model every heap pop is checked against.
func refMin(live []*event) int {
	best := 0
	for i := 1; i < len(live); i++ {
		if before(live[i], live[best]) {
			best = i
		}
	}
	return best
}

// pop removes and returns the heap's earliest event, or nil when empty.
func (h *eventHeap) pop() *event {
	if len(*h) == 0 {
		return nil
	}
	ev := (*h)[0]
	h.remove(0)
	return ev
}

// byTimeSeq orders events as the dispatch loop must.
func byTimeSeq(a, b *event) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// TestHeapMatchesReferenceOrder drives the heap with seeded random
// interleavings of pushes and pops and checks every pop against a reference
// model of the live set — the exact (t, seq) total order the determinism
// contract depends on.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var live []*event
		seq := uint64(0)
		floor := time.Duration(0) // pops advance the clock; pushes stay >= it
		for op := 0; op < 5000; op++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				seq++
				ev := &event{
					t:   floor + time.Duration(rng.Intn(2000))*time.Microsecond,
					seq: seq,
				}
				h.push(ev)
				live = append(live, ev)
			} else {
				got := h.pop()
				i := refMin(live)
				if got != live[i] {
					t.Fatalf("seed %d op %d: pop (%v,%d), reference min (%v,%d)",
						seed, op, got.t, got.seq, live[i].t, live[i].seq)
				}
				floor = got.t
				live = append(live[:i], live[i+1:]...)
			}
		}
		for len(live) > 0 {
			got := h.pop()
			i := refMin(live)
			if got != live[i] {
				t.Fatalf("seed %d drain: pop (%v,%d), reference min (%v,%d)",
					seed, got.t, got.seq, live[i].t, live[i].seq)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if h.pop() != nil {
			t.Fatalf("seed %d: heap not empty after drain", seed)
		}
	}
}

// TestHeapDrainIsTotalOrder pushes a large shuffled batch and drains it,
// asserting the exact sorted (t, seq) sequence comes back — including long
// runs of equal timestamps, which only seq orders.
func TestHeapDrainIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	var all []*event
	for i := 0; i < 3000; i++ {
		ev := &event{
			// Few distinct timestamps → many ties broken by seq alone.
			t:   time.Duration(rng.Intn(40)) * time.Millisecond,
			seq: uint64(i + 1),
		}
		all = append(all, ev)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, ev := range all {
		h.push(ev)
	}
	want := slices.Clone(all)
	slices.SortFunc(want, byTimeSeq)
	for i, w := range want {
		got := h.pop()
		if got != w {
			t.Fatalf("pop %d: got (%v,%d), want (%v,%d)", i, got.t, got.seq, w.t, w.seq)
		}
	}
	if h.pop() != nil {
		t.Fatal("heap not empty after full drain")
	}
}

// TestHeapInterleavedSchedule mirrors the engine's use: pops advance a
// clock and pushes schedule into the future relative to it.
func TestHeapInterleavedSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	seq := uint64(0)
	now := time.Duration(0)
	push := func(delay time.Duration) {
		seq++
		h.push(&event{t: now + delay, seq: seq})
	}
	for i := 0; i < 64; i++ {
		push(time.Duration(rng.Intn(500)+1) * time.Microsecond)
	}
	var lastT time.Duration
	var lastSeq uint64
	pops := 0
	for {
		ev := h.pop()
		if ev == nil {
			break
		}
		if ev.t < lastT || (ev.t == lastT && ev.seq < lastSeq) {
			t.Fatalf("pop %d: (%v,%d) after (%v,%d)", pops, ev.t, ev.seq, lastT, lastSeq)
		}
		lastT, lastSeq = ev.t, ev.seq
		now = ev.t
		pops++
		if pops < 20000 {
			// Self-rescheduling pattern plus occasional far-future fan-out.
			push(time.Microsecond)
			if pops%97 == 0 {
				for k := 0; k < 5; k++ {
					push(time.Duration(rng.Intn(100000)+1) * time.Microsecond)
				}
			}
		}
	}
	if pops < 20000 {
		t.Fatalf("drained after %d pops, expected >= 20000", pops)
	}
}

// Queue-order fuzz operations: each is one (op, arg) byte pair of the input.
const (
	opSchedule = iota // Schedule after arg%16 µs: few distinct times, many ties
	opNow             // Schedule(0): a same-instant event on the ring
	opArm             // (re)arm timer arg%4 after arg/4%8 µs
	opStop            // stop timer arg%4
	opStep            // RunUntil(now + arg%8 µs)
	opRun             // Schedule arg*40 events after 15 µs: an equal-time run (12k per input)
	numOps
)

// FuzzQueueOrder drives an Env with random schedules, same-instant
// schedules, equal-time runs, timer re-arms and timer stops, interleaved
// with partial runs, and checks every dispatch against an oracle that keeps
// the live entries sorted by (t, seq): the order a single priority queue
// would produce, with stopped or re-armed deadlines gone without a trace.
// An input replays thousands of events, so bound minimization by count:
//
//	go test ./internal/sim -run '^$' -fuzz FuzzQueueOrder -fuzztime 60s -fuzzminimizetime 100x -parallel 2
func FuzzQueueOrder(f *testing.F) {
	// A 10k-event run at one instant, then inserts at every earlier offset
	// and a timer armed and re-armed inside the run.
	run := []byte{opRun, 250}
	for d := byte(14); d > 0; d-- {
		run = append(run, opSchedule, d, opNow, 0)
	}
	f.Add(append(run, opArm, 4*7+1, opArm, 4*3+1, opStep, 5, opSchedule, 2, opStop, 1, opRun, 3))
	f.Add([]byte{opSchedule, 3, opNow, 0, opArm, 1, opStep, 2, opArm, 5, opStop, 1, opNow, 0})
	f.Add([]byte{opArm, 0, opArm, 1, opArm, 2, opArm, 3, opStop, 2, opStep, 7, opArm, 2, opNow, 0})
	// Four pending timers, then re-arms that move one up and one down.
	f.Add([]byte{opArm, 28, opArm, 25, opArm, 22, opArm, 19, opArm, 4, opArm, 31, opStep, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		e := NewEnv()
		var fired []uint64 // seqs in dispatch order
		// The oracle: every entry ever filed and still live, sorted by
		// (t, seq); those before head have been dispatched.
		var live []*event
		head := 0
		// add files the entry the last call stamped at Now()+d.
		add := func(d time.Duration) *event {
			o := &event{t: e.now + d, seq: e.seq}
			i, _ := slices.BinarySearchFunc(live[head:], o, byTimeSeq)
			live = slices.Insert(live, head+i, o)
			return o
		}
		drop := func(o *event) {
			if i, ok := slices.BinarySearchFunc(live[head:], o, byTimeSeq); ok {
				live = slices.Delete(live, head+i, head+i+1)
			}
		}
		// expect appends the entries due by horizon to want.
		var want []uint64
		expect := func(horizon time.Duration) {
			for ; head < len(live) && live[head].t <= horizon; head++ {
				want = append(want, live[head].seq)
			}
		}
		schedule := func(d time.Duration) {
			seq := e.seq + 1
			e.Schedule(d, func() { fired = append(fired, seq) })
			add(d)
		}
		runs := 0 // opRun events so far, bounded to keep executions fast
		var timers [4]Timer
		var armed [4]*event // each timer's oracle entry, nil when idle
		for i := range timers {
			timers[i].Init(e, func() {
				fired = append(fired, armed[i].seq)
				armed[i] = nil
			})
		}
		for i := 0; i+1 < len(in); i += 2 {
			arg := in[i+1]
			switch in[i] % numOps {
			case opSchedule:
				schedule(time.Duration(arg%16) * time.Microsecond)
			case opNow:
				schedule(0)
			case opRun:
				for n := 0; n < int(arg)*40 && runs < 12_000; n++ {
					schedule(15 * time.Microsecond)
					runs++
				}
			case opArm:
				k := arg % 4
				if armed[k] != nil {
					drop(armed[k])
				}
				d := time.Duration(arg/4%8) * time.Microsecond
				timers[k].Arm(d)
				armed[k] = add(d)
			case opStop:
				k := arg % 4
				if armed[k] != nil {
					drop(armed[k])
					armed[k] = nil
				}
				timers[k].Stop()
			case opStep:
				h := e.now + time.Duration(arg%8)*time.Microsecond
				expect(h)
				e.RunUntil(h)
			}
			for k := range timers {
				if queued := timers[k].ev.pos > 0; queued != (armed[k] != nil) {
					t.Fatalf("op %d: timer %d queued=%v, oracle armed=%v", i/2, k, queued, armed[k] != nil)
				}
			}
		}
		expect(1 << 62)
		e.Run()
		if !slices.Equal(fired, want) {
			i := 0
			for i < min(len(fired), len(want)) && fired[i] == want[i] {
				i++
			}
			t.Fatalf("dispatch %d diverges from the (t, seq) oracle (%d vs %d dispatches):\n got %v\nwant %v",
				i, len(fired), len(want), fired[i:min(i+8, len(fired))], want[i:min(i+8, len(want))])
		}
		if e.pending() != 0 {
			t.Fatal("queue not empty after Run")
		}
	})
}
