// Package interconnect models the cluster fabric: one full-duplex
// InfiniBand-class link per node into a non-blocking switch. Transfers are
// segmented RDMA operations charged against the sender's egress pipe, so
// asynchronous checkpoint traffic and application communication from the same
// node contend for bandwidth exactly as in the paper's Figures 9 and 10.
// Per-class cumulative-byte series feed the peak-interconnect-usage analysis.
package interconnect

import (
	"fmt"
	"time"

	"nvmcp/internal/obs"
	"nvmcp/internal/resource"
	"nvmcp/internal/sim"
)

// LinkBW is the default per-node link bandwidth: 40 Gbps InfiniBand QDR
// delivers ~4 GB/s of data after encoding overhead.
const LinkBW = 4e9

// DefaultSegment is the RDMA message segmentation granularity; large
// transfers are pipelined in segments so tracing sees smooth progress.
const DefaultSegment = 16 << 20

// DefaultLatency is the per-segment injection latency.
const DefaultLatency = 2 * time.Microsecond

// Class labels traffic for accounting.
type Class int

const (
	// ClassApp is application communication (MPI traffic).
	ClassApp Class = iota
	// ClassCkpt is checkpoint data movement.
	ClassCkpt
	numClasses
)

func (c Class) String() string {
	if c == ClassCkpt {
		return "ckpt"
	}
	return "app"
}

// Fabric is the cluster interconnect.
type Fabric struct {
	env     *sim.Env
	egress  []*resource.Pipe
	ingress []*resource.Pipe
	Segment int64
	Latency time.Duration

	// ModelIngress additionally charges each segment against the
	// receiver's ingress pipe, pipelined one segment deep — so incast
	// (many senders converging on one node, e.g. parity-group commits)
	// is bounded by the receiver's link. Off by default: the evaluation's
	// buddy-pair patterns are egress-bound and the published calibrations
	// assume sender-side charging.
	ModelIngress bool

	// series is the cumulative-bytes timeline per class: the fabric's own
	// until a recorder is attached, then the registry's "fabric_bytes".
	series [numClasses]*obs.Timeline

	// linkFactor is each node's residual link-bandwidth fraction: 1 is
	// healthy, (0,1) degraded, 0 fully down. Fault injection flips it;
	// transfers stall on a down endpoint and slow on a degraded one.
	linkFactor []float64
	// linkWake releases transfers stalled on a down link when it recovers.
	linkWake *sim.Signal

	// Counters are the fabric's counts (fabricCounters), readable by short
	// name. The byte counts book into the registry with a fabric_ prefix;
	// the transfer, segment, stall and congestion counts stay in-process.
	Counters obs.Counters
}

// Fabric counters, indexing Fabric.Counters.
const (
	cBytesApp = iota
	cBytesCkpt
	cTransfers
	cSegments
	cLinkStalls
	cCongestionEvents
)

var fabricCounters = obs.NewCounterSet("fabric_", []string{
	cBytesApp:         "bytes_app",
	cBytesCkpt:        "bytes_ckpt",
	cTransfers:        "transfers",
	cSegments:         "segments",
	cLinkStalls:       "link_stalls",
	cCongestionEvents: "congestion_events",
}...).Private(cTransfers, cSegments, cLinkStalls, cCongestionEvents)

// SetRecorder attaches the fabric to the run's observability bus: the byte
// counters book into its registry and the per-class cumulative series
// becomes the registry's "fabric_bytes" timeline, labeled by class. Attach
// before any traffic moves; a nil recorder keeps everything private.
func (f *Fabric) SetRecorder(r *obs.Recorder) {
	f.Counters.SetRecorder(r)
	if r == nil {
		return
	}
	for c := Class(0); c < numClasses; c++ {
		f.series[c] = r.Observer().Registry().Timeline("fabric_bytes", obs.Labels{"class": c.String()})
	}
}

// New builds a fabric for n nodes with the given per-node link bandwidth in
// bytes/sec (LinkBW if 0).
func New(env *sim.Env, n int, linkBW float64) *Fabric {
	if linkBW == 0 {
		linkBW = LinkBW
	}
	f := &Fabric{
		env:        env,
		egress:     make([]*resource.Pipe, n),
		ingress:    make([]*resource.Pipe, n),
		Segment:    DefaultSegment,
		Latency:    DefaultLatency,
		linkFactor: make([]float64, n),
		linkWake:   sim.NewSignal(env),
		Counters:   fabricCounters.New(),
	}
	for i := range f.linkFactor {
		f.linkFactor[i] = 1
	}
	for i := range f.egress {
		f.egress[i] = resource.NewPipe(env, fmt.Sprintf("node%d-egress", i), linkBW, resource.FlatScaling())
		f.ingress[i] = resource.NewPipe(env, fmt.Sprintf("node%d-ingress", i), linkBW, resource.FlatScaling())
	}
	for c := range f.series {
		f.series[c] = &obs.Timeline{}
	}
	return f
}

// Nodes returns the node count.
func (f *Fabric) Nodes() int { return len(f.egress) }

// Egress returns node i's egress pipe (for utilization inspection).
func (f *Fabric) Egress(node int) *resource.Pipe { return f.egress[node] }

// Ingress returns node i's ingress pipe (active only with ModelIngress).
func (f *Fabric) Ingress(node int) *resource.Pipe { return f.ingress[node] }

// Series returns the cumulative-bytes timeline for a traffic class; use
// DiffBuckets on it for per-window transferred volume (Figure 10).
func (f *Fabric) Series(c Class) *obs.Timeline { return f.series[c] }

// SetLinkFactor sets a node's residual link-bandwidth fraction: 1 restores
// full health, a value in (0,1) degrades both directions, 0 takes the node's
// links fully down. Restoring (factor > 0) wakes transfers stalled on it.
func (f *Fabric) SetLinkFactor(node int, factor float64) {
	if factor < 0 {
		factor = 0
	}
	if factor > 1 {
		factor = 1
	}
	f.linkFactor[node] = factor
	if factor > 0 {
		f.linkWake.Broadcast()
	}
}

// RestoreLink returns a node's links to full bandwidth.
func (f *Fabric) RestoreLink(node int) { f.SetLinkFactor(node, 1) }

// LinkFactor returns a node's current residual bandwidth fraction.
func (f *Fabric) LinkFactor(node int) float64 { return f.linkFactor[node] }

// LinkUp reports whether a node's links carry any traffic at all.
func (f *Fabric) LinkUp(node int) bool { return f.linkFactor[node] > 0 }

// pathFactor is the residual fraction of the slower endpoint on a path.
func (f *Fabric) pathFactor(from, to int) float64 {
	phi := f.linkFactor[from]
	if f.linkFactor[to] < phi {
		phi = f.linkFactor[to]
	}
	return phi
}

// EstimateTransfer predicts a transfer's uncontended wire time under the
// current link state. ok=false means the path is unusable (an endpoint's
// link is down) — the remote helper's pre-flight check treats that as an
// immediately failed attempt rather than queueing into a black hole.
func (f *Fabric) EstimateTransfer(from, to int, size int64, rateCap float64) (time.Duration, bool) {
	if size <= 0 || from == to {
		return 0, true
	}
	phi := f.pathFactor(from, to)
	if phi <= 0 {
		return 0, false
	}
	segs := (size + f.Segment - 1) / f.Segment
	wire := f.egress[from].EstimateTime(size)
	if rateCap > 0 {
		if capped := time.Duration(float64(size) / rateCap * float64(time.Second)); capped > wire {
			wire = capped
		}
	}
	return time.Duration(segs)*f.Latency + time.Duration(float64(wire)/phi), true
}

// CongestionAmp scales the queueing penalty applied to application messages
// that experience bandwidth contention. Fluid fair sharing alone understates
// the damage of saturated links — credit stalls, head-of-line blocking and
// retry windows grow superlinearly as a message is squeezed — so application
// transfers pay an extra Amp·(delay²/ideal) term. This is what makes *peak*
// interconnect usage, not just total bytes, hurt the application, the effect
// the paper's remote pre-copy exists to avoid. The default is calibrated so
// that a full-rate checkpoint burst sharing a link with application traffic
// produces interference of the magnitude prior work reports (~22% slowdown
// for communication-intensive phases, G. Zheng et al. as cited in the paper).
var CongestionAmp = 4.0

// congestionPenaltyCap bounds the quadratic term to a multiple of the ideal
// transfer time so pathological contention cannot run away.
const congestionPenaltyCap = 10.0

// Transfer moves size bytes from node `from` to node `to` as a sequence of
// rate-capped RDMA segments, blocking p until completion. rateCap <= 0 means
// uncapped. Transfers to the local node are free (no link crossed). With
// ModelIngress set, segments additionally traverse the receiver's ingress
// pipe, pipelined one segment deep behind the egress leg.
func (f *Fabric) Transfer(p *sim.Proc, from, to int, size int64, class Class, rateCap float64) {
	if size <= 0 || from == to {
		return
	}
	f.Counters[cTransfers].Add(1)
	pipe := f.egress[from]

	var rxQueue *sim.Queue[int64]
	var rxDone *sim.Completion
	if f.ModelIngress {
		rxQueue = sim.NewQueue[int64](f.env)
		rxDone = sim.NewCompletion(f.env)
		in := f.ingress[to]
		f.env.Go(fmt.Sprintf("rx-node%d", to), func(rp *sim.Proc) {
			for {
				seg := rxQueue.Get(rp)
				if seg < 0 {
					rxDone.Complete()
					return
				}
				if rateCap > 0 {
					in.TransferCapped(rp, seg, rateCap)
				} else {
					in.Transfer(rp, seg)
				}
			}
		})
		// If the sender unwinds (killed mid-transfer), release the receiver.
		defer func() {
			if !rxDone.Completed() {
				rxQueue.Put(-1)
			}
		}()
	}

	start := p.Now()
	remaining := size
	segments := 0
	for remaining > 0 {
		seg := f.Segment
		if seg > remaining {
			seg = remaining
		}
		// A down endpoint stalls the transfer until the link recovers; a
		// degraded one stretches the segment by the residual fraction.
		for f.pathFactor(from, to) <= 0 {
			f.Counters[cLinkStalls].Add(1)
			f.linkWake.Wait(p)
		}
		phi := f.pathFactor(from, to)
		segStart := p.Now()
		p.Sleep(f.Latency)
		if rateCap > 0 {
			pipe.TransferCapped(p, seg, rateCap)
		} else {
			pipe.Transfer(p, seg)
		}
		if phi < 1 {
			elapsed := p.Now() - segStart
			p.Sleep(time.Duration(float64(elapsed) * (1 - phi) / phi))
		}
		if rxQueue != nil {
			rxQueue.Put(seg)
		}
		remaining -= seg
		segments++
		f.account(class, seg)
		f.Counters[cSegments].Add(1)
	}
	if rxQueue != nil {
		rxQueue.Put(-1)
		rxDone.Await(p)
	}
	if class == ClassApp && CongestionAmp > 0 {
		ideal := time.Duration(segments)*f.Latency + pipe.EstimateTime(size)
		actual := p.Now() - start
		if actual > ideal && ideal > 0 {
			delay := (actual - ideal).Seconds()
			penalty := CongestionAmp * delay * delay / ideal.Seconds()
			if max := congestionPenaltyCap * ideal.Seconds(); penalty > max {
				penalty = max
			}
			f.Counters[cCongestionEvents].Add(1)
			p.Sleep(time.Duration(penalty * float64(time.Second)))
		}
	}
}

// RDMAWrite pushes size bytes from node `from` into node `to`'s memory —
// the one-sided operation the remote pre-copy helper uses.
func (f *Fabric) RDMAWrite(p *sim.Proc, from, to int, size int64, rateCap float64) {
	f.Transfer(p, from, to, size, ClassCkpt, rateCap)
}

// RDMARead pulls size bytes from node `from` into the caller's node `to` —
// used by restart to fetch a remote checkpoint. The data crosses `from`'s
// egress link.
func (f *Fabric) RDMARead(p *sim.Proc, from, to int, size int64) {
	f.Transfer(p, from, to, size, ClassCkpt, 0)
}

// Send models application communication of size bytes from one rank's node
// to another's.
func (f *Fabric) Send(p *sim.Proc, from, to int, size int64) {
	f.Transfer(p, from, to, size, ClassApp, 0)
}

// byteCount returns a traffic class's byte counter.
func (f *Fabric) byteCount(c Class) *obs.Count {
	if c == ClassCkpt {
		return &f.Counters[cBytesCkpt]
	}
	return &f.Counters[cBytesApp]
}

func (f *Fabric) account(class Class, n int64) {
	bc := f.byteCount(class)
	bc.Add(n)
	f.series[class].Set(f.env.Now(), float64(bc.Get()))
}

// Bytes returns total bytes moved for a class.
func (f *Fabric) Bytes(c Class) float64 { return float64(f.byteCount(c).Get()) }

// PeakCkptWindow returns the peak checkpoint bytes moved in any window of
// the given width up to end — the Figure 10 metric.
func (f *Fabric) PeakCkptWindow(end, width time.Duration) (float64, int) {
	return f.series[ClassCkpt].PeakDiffBucket(end, width)
}
