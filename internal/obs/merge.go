package obs

import (
	"sort"
	"time"
)

// MergeShards folds per-shard observers into dst in a deterministic order —
// the sharded engine's flush-time merge. Each shard publishes into its own
// Observer during the run (so the hot path takes no cross-shard locks); when
// every shard has stopped, the coordinator merges:
//
//   - counters: summed.
//   - gauges: taken in shard order (last shard wins a conflict); callers
//     re-derive cluster-level gauges from the merged registry afterwards.
//   - timelines: summed as step functions — the merged series at any instant
//     is the sum of the shard series, which keeps window-diff readings
//     (e.g. the Figure 10 peak) exact.
//   - events: a k-way merge ordered by (virtual time, shard index,
//     per-shard publication order) — the cross-shard total order the
//     determinism contract names. Within one shard the stream is already
//     time-ordered, so the merge is linear.
//
// The registries merge first; then every merged event goes onto dst's bus
// as if published at its own virtual time, so dst's taps (the lineage
// tracer, the SLO recorder, the drift observatory) fold the whole cluster's
// stream in that order and may read the merged registry as they go. A
// merged event carries no interval start.
//
// dst's environment should already be advanced to the latest shard clock so
// report builders read a consistent end time.
func MergeShards(dst *Observer, shards []*Observer) {
	regs := make([]*Registry, len(shards))
	for i, s := range shards {
		regs[i] = s.reg
	}
	dst.reg.mergeFrom(regs)

	streams := make([][]Event, len(shards))
	for i, s := range shards {
		streams[i] = s.Events()
	}
	idx := make([]int, len(streams))
	dst.mu.Lock()
	defer dst.mu.Unlock()
	for {
		best := -1
		for i := range streams {
			if idx[i] >= len(streams[i]) {
				continue
			}
			if best < 0 || streams[i][idx[i]].TUS < streams[best][idx[best]].TUS {
				best = i
			}
		}
		if best < 0 {
			return
		}
		ev := streams[best][idx[best]]
		dst.record(ev.Time(), ev.Node, ev.Actor, ev.Type, ev.Chunk, ev.Bytes, 0, ev.Attrs)
		idx[best]++
	}
}

// mergeFrom absorbs the source registries into dst, iterating every metric
// map in sorted-key order so the merged registry's creation order — and
// with it every downstream rendering — is deterministic. A metric is its
// name and canonical label string, so the merge copies keys, never labels.
func (dst *Registry) mergeFrom(srcs []*Registry) {
	for _, src := range srcs {
		src.mu.Lock()
		counters := make(map[metricKey]*Counter, len(src.counters))
		for k, v := range src.counters {
			counters[k] = v
		}
		gauges := make(map[metricKey]*Gauge, len(src.gauges))
		for k, v := range src.gauges {
			gauges[k] = v
		}
		src.mu.Unlock()
		for _, k := range sortedKeys(counters) {
			dst.counterCanon(k.name, k.canon).Add(counters[k].Get())
		}
		for _, k := range sortedKeys(gauges) {
			dst.gaugeCanon(k.name, k.canon).Set(gauges[k].Get())
		}
	}

	// Timelines need every source at once: the merged series is the sum of
	// step functions, rebuilt monotonically (Timeline.Set only appends).
	seen := make(map[metricKey]bool)
	for _, src := range srcs {
		src.mu.Lock()
		for k := range src.timelines {
			seen[k] = true
		}
		src.mu.Unlock()
	}
	for _, k := range sortedKeys(seen) {
		var parts []*Timeline
		for _, src := range srcs {
			src.mu.Lock()
			tl := src.timelines[k]
			src.mu.Unlock()
			if tl != nil {
				parts = append(parts, tl)
			}
		}
		sumStepFunctions(dst.timelineCanon(k.name, k.canon), parts)
	}
}

// sumStepFunctions rebuilds dst as the pointwise sum of the source step
// functions: each source is decomposed into (time, delta) increments, the
// increments are merged in time order (ties collapse at the same instant,
// so their ordering cannot affect the series), and the cumulative sum is
// replayed into dst.
func sumStepFunctions(dst *Timeline, srcs []*Timeline) {
	const horizon = 1<<62 - 1
	type step struct {
		t time.Duration
		d float64
	}
	var steps []step
	for _, s := range srcs {
		ts, vs := s.Window(0, horizon)
		prev := 0.0
		for i, t := range ts {
			d := vs[i] - prev
			prev = vs[i]
			if d == 0 {
				continue
			}
			steps = append(steps, step{t, d})
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].t < steps[j].t })
	cum := 0.0
	for _, st := range steps {
		cum += st.d
		dst.Set(st.t, cum)
	}
}
