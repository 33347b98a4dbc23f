package sim

// eventHeap is the Env's queue of future events and owned timers: a 4-ary
// min-heap on (t, seq). Every queued event records its slot (event.pos), so
// a timer is re-keyed or removed in place in O(log n) and leaves no
// tombstone behind. Four children per node halve the depth of a binary heap
// and keep each sift-down's siblings adjacent in memory; an insert costs
// O(log n) however many queued events share its timestamp.
type eventHeap []*event

// before is the queue's total order: time, then scheduling sequence.
func before(a, b *event) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }

// push files ev.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// remove takes out the event in slot i (the earliest when i is 0).
func (h *eventHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	s[i].pos = 0
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if i < n {
		h.fix(i, last)
	}
}

// fix settles ev, whose key may have moved either way, from slot i.
func (h eventHeap) fix(i int, ev *event) {
	if i > 0 && before(ev, h[(i-1)/4]) {
		h.up(i, ev)
	} else {
		h.down(i, ev)
	}
}

// up moves ev from slot i toward the root until its parent precedes it.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		parent := (i - 1) / 4
		if !before(ev, h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, ev)
}

// down moves ev from slot i toward the leaves until it precedes its
// earliest child.
func (h eventHeap) down(i int, ev *event) {
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, len(h)); c++ {
			if before(h[c], h[least]) {
				least = c
			}
		}
		if !before(h[least], ev) {
			break
		}
		h.set(i, h[least])
		i = least
	}
	h.set(i, ev)
}

func (h eventHeap) set(i int, ev *event) {
	h[i] = ev
	ev.pos = int32(i + 1)
}
