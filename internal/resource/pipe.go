// Package resource models bandwidth-shared hardware resources under the
// simulation clock. A Pipe is a processor-sharing ("fluid flow") model of a
// memory device, bus, or network link: concurrent transfers share the pipe's
// capacity max-min fairly, with optional per-flow rate caps and a capacity
// curve describing how aggregate bandwidth scales (or saturates) with the
// number of concurrent flows. This is what produces the paper's per-core
// bandwidth collapse (Figure 4) and interconnect contention (Figures 9/10).
package resource

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"nvmcp/internal/sim"
)

// ScalingFunc maps a concurrent-flow count to an aggregate-capacity
// multiplier, relative to the single-flow rate. scale(1) must be 1; values
// below n model contention (per-flow share = scale(n)/n of single-flow rate).
type ScalingFunc func(n int) float64

// FlatScaling models a device whose aggregate bandwidth a single flow can
// already saturate (e.g. a PCM DIMM's ~2 GB/s write path): scale(n) = 1, so
// n flows each get 1/n of the device.
func FlatScaling() ScalingFunc {
	return func(n int) float64 { return 1 }
}

// SaturatingScaling models sub-linear scaling: scale(n) = n / (1 + beta*(n-1)).
// beta = 0 is linear; beta = 1 is flat. The per-flow share relative to a lone
// flow is 1/(1+beta*(n-1)), so beta can be calibrated directly from a
// measured per-core bandwidth drop (e.g. the paper's 67 % drop at 12 cores
// gives beta ≈ 0.1845).
func SaturatingScaling(beta float64) ScalingFunc {
	return func(n int) float64 {
		if n < 1 {
			n = 1
		}
		return float64(n) / (1 + beta*float64(n-1))
	}
}

// BetaForPerFlowDrop returns the SaturatingScaling beta such that with n
// flows each flow retains `retain` (0..1] of its single-flow bandwidth.
func BetaForPerFlowDrop(n int, retain float64) float64 {
	if n <= 1 || retain >= 1 {
		return 0
	}
	return (1/retain - 1) / float64(n-1)
}

// Pipe is a fair-shared bandwidth resource.
type Pipe struct {
	env        *sim.Env
	name       string
	singleRate float64 // bytes/sec achieved by a lone flow
	scale      ScalingFunc
	// flows is kept sorted by (cap, id) at all times: water-filling must
	// visit the tightest caps first, and keeping the order incrementally
	// (binary-search insert on join, memmove delete on leave) means
	// recompute never allocates or sorts on the transfer hot path. The
	// fixed order also makes every float accumulation deterministic.
	flows []*flow
	lastT time.Duration
	xfer  *transfers // built by the first transfer

	// Bytes is the cumulative volume moved through the pipe.
	Bytes float64
	// BusyTime accumulates virtual time during which at least one flow
	// was active.
	BusyTime time.Duration
	// Transfers counts completed transfers.
	Transfers int64

	nextFlowID uint64
}

// transfers is a pipe's machinery for moving bytes, built on its first
// transfer so that an idle pipe (a fleet has thousands) costs only its
// shape. It is what keeps steady-state transfers allocation-free: one
// re-armed completion deadline, retired flows kept for reuse, and
// onDeadline's scratch batch.
type transfers struct {
	deadline sim.Timer // the earliest flow's completion, re-armed by recompute
	spare    []*flow
	finished []*flow
}

type flow struct {
	id        uint64 // creation order, for deterministic completion order
	remaining float64
	rate      float64 // current allocation, bytes/sec
	cap       float64 // per-flow rate cap (Inf if none)
	done      sim.Completion
}

// NewPipe creates a pipe where a lone flow moves singleRate bytes/sec and
// aggregate capacity follows scale. singleRate must be positive; a nil scale
// defaults to FlatScaling.
func NewPipe(env *sim.Env, name string, singleRate float64, scale ScalingFunc) *Pipe {
	if singleRate <= 0 {
		panic("resource: pipe " + name + " needs positive bandwidth")
	}
	if scale == nil {
		scale = FlatScaling()
	}
	return &Pipe{
		env:        env,
		name:       name,
		singleRate: singleRate,
		scale:      scale,
		lastT:      env.Now(),
	}
}

// Name returns the pipe's name.
func (pp *Pipe) Name() string { return pp.name }

// SingleRate returns the bandwidth a lone flow achieves, in bytes/sec.
func (pp *Pipe) SingleRate() float64 { return pp.singleRate }

// Capacity returns the aggregate bandwidth available to n concurrent flows.
func (pp *Pipe) Capacity(n int) float64 {
	if n <= 0 {
		return 0
	}
	return pp.singleRate * pp.scale(n)
}

// PerFlowRate returns the fair share each of n uncapped flows receives.
func (pp *Pipe) PerFlowRate(n int) float64 {
	if n <= 0 {
		return 0
	}
	return pp.Capacity(n) / float64(n)
}

// addFlow inserts f keeping flows sorted by (cap, id). New flows carry the
// largest id, so inserting after every flow with cap <= f.cap is stable.
func (pp *Pipe) addFlow(f *flow) {
	i := sort.Search(len(pp.flows), func(i int) bool { return pp.flows[i].cap > f.cap })
	pp.flows = append(pp.flows, nil)
	copy(pp.flows[i+1:], pp.flows[i:])
	pp.flows[i] = f
}

// removeFlow deletes f from the sorted flow set.
func (pp *Pipe) removeFlow(f *flow) {
	for i, g := range pp.flows {
		if g == f {
			pp.flows = append(pp.flows[:i], pp.flows[i+1:]...)
			return
		}
	}
}

// Transfer moves size bytes through the pipe, blocking p in virtual time
// until the transfer completes. Zero or negative sizes return immediately.
func (pp *Pipe) Transfer(p *sim.Proc, size int64) {
	pp.TransferCapped(p, size, math.Inf(1))
}

// TransferCapped is Transfer with a per-flow rate ceiling in bytes/sec,
// used e.g. to model throttled background pre-copy streams.
func (pp *Pipe) TransferCapped(p *sim.Proc, size int64, maxRate float64) {
	if size <= 0 {
		return
	}
	if maxRate <= 0 {
		panic("resource: non-positive rate cap on " + pp.name)
	}
	if pp.xfer == nil {
		pp.xfer = new(transfers)
		pp.xfer.deadline.Init(pp.env, pp.onDeadline)
	}
	x := pp.xfer
	var f *flow
	if n := len(x.spare); n > 0 {
		f = x.spare[n-1]
		x.spare = x.spare[:n-1]
	} else {
		f = new(flow)
	}
	pp.nextFlowID++
	f.id, f.remaining, f.rate, f.cap = pp.nextFlowID, float64(size), 0, maxRate
	f.done.Reset(pp.env)
	pp.advance()
	pp.addFlow(f)
	pp.recompute()
	defer func() {
		if !f.done.Completed() {
			// Kill unwind mid-transfer: account for what moved and
			// free the flow's share.
			pp.advance()
			pp.removeFlow(f)
			pp.recompute()
		}
		x.spare = append(x.spare, f)
	}()
	f.done.Await(p)
	pp.Transfers++
}

// EstimateTime returns how long size bytes would take if they were the only
// flow (used by the pre-copy threshold calculator, not by transfers).
func (pp *Pipe) EstimateTime(size int64) time.Duration {
	secs := float64(size) / pp.singleRate
	return time.Duration(secs * float64(time.Second))
}

// advance applies progress at the current rates up to Now.
func (pp *Pipe) advance() {
	now := pp.env.Now()
	dt := (now - pp.lastT).Seconds()
	if dt <= 0 {
		pp.lastT = now
		return
	}
	if len(pp.flows) > 0 {
		pp.BusyTime += now - pp.lastT
		moved := 0.0
		// The slice's fixed (cap, id) order makes this float accumulation
		// reproducible run to run; iterating a map here would make Bytes
		// depend on Go's randomized map order.
		for _, f := range pp.flows {
			prog := f.rate * dt
			if prog > f.remaining {
				prog = f.remaining
			}
			f.remaining -= prog
			moved += prog
		}
		pp.Bytes += moved
	}
	pp.lastT = now
}

// recompute performs max-min fair allocation with per-flow caps and
// re-arms the completion deadline for the earliest finishing flow.
func (pp *Pipe) recompute() {
	n := len(pp.flows)
	if n == 0 {
		pp.xfer.deadline.Stop()
		return
	}
	// Water-filling: satisfy capped flows whose cap is below the equal
	// share, then split the rest equally. The flow set is already sorted
	// by (cap, id), so this is a single allocation-free pass.
	capacity := pp.Capacity(n)
	remainingCap := capacity
	remainingFlows := n
	for _, f := range pp.flows {
		share := remainingCap / float64(remainingFlows)
		if f.cap < share {
			f.rate = f.cap
		} else {
			f.rate = share
		}
		remainingCap -= f.rate
		remainingFlows--
	}
	// Schedule the earliest completion.
	earliest := math.Inf(1)
	for _, f := range pp.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < earliest {
			earliest = t
		}
	}
	if math.IsInf(earliest, 1) {
		pp.xfer.deadline.Stop()
		return
	}
	d := time.Duration(math.Ceil(earliest * float64(time.Second)))
	if d < 1 {
		d = 1
	}
	pp.xfer.deadline.Arm(d)
}

// onDeadline fires when the earliest flow should have finished: apply
// progress, retire finished flows, reallocate.
func (pp *Pipe) onDeadline() {
	pp.advance()
	const eps = 1e-3 // bytes; transfers are whole bytes, rates are floats
	finished := pp.xfer.finished[:0]
	for _, f := range pp.flows {
		if f.remaining <= eps {
			finished = append(finished, f)
		}
	}
	// Complete in creation order so the wake sequence (and therefore the
	// whole simulation) is reproducible; the flow set is sorted by cap
	// first, so re-sort the (usually tiny) finished batch by id.
	slices.SortFunc(finished, func(a, b *flow) int { return cmp.Compare(a.id, b.id) })
	for _, f := range finished {
		pp.removeFlow(f)
		f.done.Complete()
	}
	clear(finished)
	pp.xfer.finished = finished[:0]
	pp.recompute()
}

// String implements fmt.Stringer.
func (pp *Pipe) String() string {
	return fmt.Sprintf("resource.Pipe{%s single=%.0fB/s flows=%d}", pp.name, pp.singleRate, len(pp.flows))
}
