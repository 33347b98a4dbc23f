package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// layerNames are the layers CPU samples and allocations are attributed to:
// the repository's internal packages that make up a run, plus "runtime"
// (samples with no repository frame, mostly scheduler handoffs) and "gc"
// (samples under the garbage collector's workers).
var layerNames = []string{
	"sim", "runtime", "gc", "core", "precopy", "remote", "nvmkernel", "nvmalloc",
	"resource", "interconnect", "mem", "obs", "trace", "lineage", "slo", "drift",
	"cluster", "fault", "pfs", "erasure", "policy", "workload", "scenario", "topo",
}

// repoPrefix is the import-path prefix of the repository's packages.
const repoPrefix = "nvmcp/internal/"

// gcRoots are runtime functions whose presence on a stack with no repository
// frame marks the sample as garbage-collector work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.GC":             true,
}

// layerOf attributes one stack (function names, innermost first) to a layer:
// the innermost frame in a listed repository package wins. Frames of other
// repository packages (stats, model, experiments) are skipped, so their cost
// lands on the layer that called them. A stack with no listed frame is "gc"
// under a garbage-collector root and "runtime" otherwise.
func layerOf(frames []string) string {
	gc := false
	for _, f := range frames {
		if pkg, ok := repoPackage(f); ok && isLayer(pkg) {
			return pkg
		}
		gc = gc || gcRoots[f]
	}
	if gc {
		return "gc"
	}
	return "runtime"
}

// repoPackage extracts <pkg> from "nvmcp/internal/<pkg>.Func".
func repoPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

func isLayer(pkg string) bool {
	for _, l := range layerNames {
		if l == pkg && l != "runtime" && l != "gc" {
			return true
		}
	}
	return false
}

// layerPass is a workload's traced pass.
type layerPass struct {
	// CPUFrac and AllocMB are per layer: the share of CPU samples and the
	// MiB allocated per run.
	CPUFrac    map[string]float64 `json:"cpu_frac"`
	AllocMB    map[string]float64 `json:"alloc_mb"`
	CPUSamples int64              `json:"cpu_samples"`
	Runs       int                `json:"runs"`
	// OverheadFrac is the traced runs' median wall time over the untraced
	// runs' median, minus one.
	OverheadFrac float64            `json:"trace_overhead_frac"`
	WorkCounts   map[string]float64 `json:"work_counts"`
}

// tracedMemProfileRate is the heap sampling interval of the traced pass.
const tracedMemProfileRate = 64 << 10

// measureLayers runs the traced pass under b with a CPU profile and
// heap-allocation sampling, and folds both onto layers. untracedWall is the
// untraced runs' median raw wall time, the base of the tracing overhead.
func (s *session) measureLayers(b budget, untracedWall float64) (layerPass, error) {
	before := memRecords()
	prevRate := runtime.MemProfileRate
	runtime.MemProfileRate = tracedMemProfileRate
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		runtime.MemProfileRate = prevRate
		return layerPass{}, fmt.Errorf("cpu profile: %w", err)
	}
	attempted := s.attempted
	runs, runErr := s.timedRuns(b, true)
	pprof.StopCPUProfile()
	// Two collections publish every allocation of the pass to the profile.
	runtime.GC()
	runtime.GC()
	after := memRecords()
	runtime.MemProfileRate = prevRate
	if runErr != nil {
		return layerPass{}, runErr
	}

	stacks, err := decodeProfile(prof.Bytes())
	if err != nil {
		return layerPass{}, fmt.Errorf("cpu profile: %w", err)
	}
	lp := layerPass{CPUFrac: map[string]float64{}, AllocMB: map[string]float64{}, Runs: s.attempted - attempted}
	counts := map[string]int64{}
	for _, st := range stacks {
		counts[layerOf(st.frames)] += st.count
		lp.CPUSamples += st.count
	}
	for _, l := range layerNames {
		if lp.CPUSamples > 0 {
			lp.CPUFrac[l] = float64(counts[l]) / float64(lp.CPUSamples)
		}
		lp.AllocMB[l] = 0
	}
	for l, b := range allocByLayer(before, after, tracedMemProfileRate) {
		lp.AllocMB[l] = b / float64(lp.Runs) / (1 << 20)
	}
	walls := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = r.wall.Seconds()
	}
	lp.OverheadFrac = median(walls)/untracedWall - 1
	lp.WorkCounts = s.counts.metrics()
	return lp, nil
}

// memRecords snapshots the heap profile, keyed by allocation stack.
func memRecords() map[[32]uintptr]runtime.MemProfileRecord {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		out[r.Stack0] = r
	}
	return out
}

// allocByLayer folds the allocations made between two heap-profile snapshots
// onto layers, in bytes, unsampled the way pprof does for the given rate.
func allocByLayer(before, after map[[32]uintptr]runtime.MemProfileRecord, rate int) map[string]float64 {
	out := map[string]float64{}
	for stk, r := range after {
		objs := r.AllocObjects - before[stk].AllocObjects
		size := r.AllocBytes - before[stk].AllocBytes
		if objs <= 0 || size <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(size)/float64(objs)/float64(rate)))
		var frames []string
		it := runtime.CallersFrames(r.Stack())
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(frames)] += float64(size) * scale
	}
	return out
}

// stackSample is one CPU-profile sample: its stack, innermost frame first,
// and how many times it was sampled.
type stackSample struct {
	frames []string
	count  int64
}

var errTruncated = errors.New("truncated protobuf")

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes,
// keeping only what the fold needs: each sample's function names and count.
// Inlined frames come out innermost first, as the format orders them.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sampleRec struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []sampleRec
		locFuncs = map[uint64][]uint64{} // location id → function ids
		funcName = map[uint64]int64{}    // function id → string index
		strs     []string
	)
	top := pbuf(raw)
	for len(top) > 0 {
		field, _, _, payload, err := top.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s sampleRec
			msg := pbuf(payload)
			for len(msg) > 0 {
				f, w, v, p, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = appendUints(s.locs, w, v, p)
				case 2:
					s.values, err = appendUints(s.values, w, v, p)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			msg := pbuf(payload)
			for len(msg) > 0 {
				f, _, v, p, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := pbuf(p)
					for len(line) > 0 {
						lf, _, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			msg := pbuf(payload)
			for len(msg) > 0 {
				f, _, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pbuf is an unread protobuf message.
type pbuf []byte

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errTruncated
		}
		c := (*b)[0]
		*b = (*b)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("protobuf varint overflows 64 bits")
}

// next reads one field: its number, wire type, and its value (varints) or
// payload (length-delimited fields). Fixed-width fields are skipped.
func (b *pbuf) next() (field, wire int, v uint64, payload []byte, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	skip := 0
	switch wire {
	case 0:
		v, err = b.varint()
		return field, wire, v, nil, err
	case 1:
		skip = 8
	case 2:
		n, err := b.varint()
		if err != nil {
			return 0, 0, 0, nil, err
		}
		if n > uint64(len(*b)) {
			return 0, 0, 0, nil, errTruncated
		}
		payload = (*b)[:n]
		*b = (*b)[n:]
		return field, wire, 0, payload, nil
	case 5:
		skip = 4
	default:
		return 0, 0, 0, nil, fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
	if skip > len(*b) {
		return 0, 0, 0, nil, errTruncated
	}
	*b = (*b)[skip:]
	return field, wire, 0, nil, nil
}

// appendUints decodes a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := pbuf(payload)
	for len(p) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// layerMetricNames lists every per-layer metric the harness reports, in
// report order: per-layer CPU share and allocation, the tracing overhead,
// the probes and the work counts.
func layerMetricNames() []string {
	var out []string
	for _, l := range layerNames {
		out = append(out, l+".cpu_frac", l+".alloc_mb")
	}
	out = append(out, "trace_overhead_frac")
	for _, p := range probes {
		out = append(out, p.name, allocsName(p.name))
	}
	return append(out, workCountNames...)
}

// values flattens the traced pass into per-layer metric values.
func (l *layerPass) values() map[string]float64 {
	out := map[string]float64{"trace_overhead_frac": l.OverheadFrac}
	for _, name := range layerNames {
		out[name+".cpu_frac"] = l.CPUFrac[name]
		out[name+".alloc_mb"] = l.AllocMB[name]
	}
	for name, v := range l.WorkCounts {
		out[name] = v
	}
	return out
}

// layerUnit is a per-layer metric's unit, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_rate"),
		strings.HasSuffix(name, "_per_ship"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.Contains(name, "_allocs"):
		return "allocs/op"
	case strings.Contains(name, "_ns"):
		return "ns/op"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_gb"):
		return "GB"
	}
	return "count"
}
