// Package lineage is the causal, per-chunk lifecycle tracer layered on the
// obs event bus. Every chunk transition — dirty, pre-copy, redirty, local
// commit, remote ship (with retries and failovers), corruption, salvage,
// recovery read — becomes one typed lineage record carrying the virtual
// timestamp, the storage tier, the recovery epoch, the payload's staged
// generation (seq), and the cause that pushed the chunk off its happy path.
// Records live in a compact columnar in-memory store with bounded memory:
// one fixed-capacity ring per chunk, with evicted and pre-previous-epoch
// records folded into per-op counts (epoch compaction), plus one bounded
// cluster-wide fault log.
//
// On top of the store runs an online invariant checker validating causal
// rules as events arrive:
//
//   - commit-without-stage: a chunk may not commit a generation its local
//     NVM never staged (and a remote commit must flip a generation that was
//     actually shipped there);
//   - redirty-not-recopied: a chunk redirtied after a pre-copy must be
//     recopied before the commit flips — committing an older generation
//     silently loses the newer writes;
//   - stale-recovery: the recovery cascade must serve the newest surviving
//     copy — recovering from the bottom tier while a live remote copy
//     exists, restoring a generation known damaged, or declaring a chunk
//     lost while any tier still holds it, are all violations.
//
// The tracer attaches to an Observer as its event tap, so it sees the exact
// serialized event order the bus records, at the moment of publication. It
// never publishes events back (the tap runs under the observer's mutex);
// per-tier transition counters go to the metrics registry, which has its
// own lock.
package lineage

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nvmcp/internal/obs"
)

// Op is one lineage transition type.
type Op uint8

// The transition taxonomy, in lifecycle order.
const (
	OpDirty Op = iota
	OpRedirty
	OpPrecopy
	OpStage
	OpCommit
	OpShip
	OpShipRetry
	OpRemoteCommit
	OpDrain
	OpCorrupt
	OpSalvage
	OpRestore
	OpRecovered
	// opFault covers cluster-wide fault-log entries (failures, link flaps,
	// buddy failovers, recoveries) interleaved into Why explanations.
	opFault
	opCount
)

var opNames = [opCount]string{
	"dirty", "redirty", "precopy", "stage", "commit", "ship", "ship_retry",
	"remote_commit", "drain", "corrupt", "salvage", "restore", "recovered",
	"fault",
}

// String returns the op's wire name.
func (o Op) String() string { return opNames[o] }

// Tier indexes the storage level a record touched.
type Tier uint8

// The tier ladder, top to bottom.
const (
	TierDRAM Tier = iota
	TierLocal
	TierRemote
	TierBottom
	tierCount
)

var tierNames = [tierCount]string{"dram", "local", "remote", "bottom"}

// String returns the tier's wire name.
func (t Tier) String() string { return tierNames[t] }

// Record is one decoded lineage record.
type Record struct {
	TUS   int64  `json:"t_us"`
	Epoch int    `json:"epoch"`
	Op    string `json:"op"`
	Tier  string `json:"tier"`
	Node  int    `json:"node"`
	Seq   uint64 `json:"seq,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Cause string `json:"cause,omitempty"`
}

// Violation is one invariant breach, bound to the offending chunk.
type Violation struct {
	TUS    int64  `json:"t_us"`
	Epoch  int    `json:"epoch"`
	Chunk  string `json:"chunk"`
	Rule   string `json:"rule"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%dus epoch=%d chunk=%s rule=%s: %s", v.TUS, v.Epoch, v.Chunk, v.Rule, v.Detail)
}

// Config tunes the tracer.
type Config struct {
	// Enabled turns tracing (and the checker) on.
	Enabled bool `json:"enabled"`
	// Strict makes cluster.Run fail loudly on the first violation, dumping
	// the offending chunk's full lineage.
	Strict bool `json:"strict,omitempty"`
}

// ringSize bounds per-chunk in-memory records; older records compact into
// per-op counts. maxViolations bounds retained violation details; the total
// count keeps counting past it.
const (
	ringSize      = 128
	ringFirstCap  = 8 // a ring's first allocation, in records
	maxViolations = 64
	faultLogCap   = 512
)

// ring is the per-chunk record store: a fixed-capacity, oldest-evicted
// circular buffer of packed 40-byte records, with causes interned once per
// distinct string. A record costs one append, and the ring grows by one
// allocation at a time.
type ring struct {
	recs  []encRecord
	start int
	n     int
}

func (r *ring) push(rec encRecord) (evicted encRecord, wasFull bool) {
	if r.n < ringSize {
		if r.recs == nil {
			r.recs = make([]encRecord, 0, ringFirstCap)
		}
		r.recs = append(r.recs, rec)
		r.n++
		return encRecord{}, false
	}
	evicted = r.recs[r.start]
	r.recs[r.start] = rec
	r.start = (r.start + 1) % len(r.recs)
	return evicted, true
}

// at returns the logical i-th oldest record.
func (r *ring) at(i int) encRecord {
	return r.recs[(r.start+i)%len(r.recs)]
}

// dropOldest removes the n oldest records in place (epoch compaction).
func (r *ring) dropOldest(n int) {
	if n <= 0 {
		return
	}
	if n >= r.n {
		r.recs, r.start, r.n = r.recs[:0], 0, 0
		return
	}
	// Re-pack survivors to the front so capacity stays append-driven.
	keep := make([]encRecord, 0, r.n-n)
	for i := n; i < r.n; i++ {
		keep = append(keep, r.at(i))
	}
	r.recs, r.start, r.n = append(r.recs[:0], keep...), 0, len(keep)
}

type encRecord struct {
	tus   int64
	seq   uint64
	bytes int64
	op    uint8
	tier  uint8
	epoch uint16
	node  int16
	cause uint32
}

// chunkState is one chunk's ring plus the checker's causal model of where
// that chunk's generations live.
type chunkState struct {
	ring    ring
	compact map[Op]uint64 // ops folded out of the ring

	node int // owning node (last stage/commit)

	// Epoch-scoped sequence tracking (reset on recovery: a fresh process
	// incarnation restarts its modification-sequence domain).
	stagedSeq    uint64
	lastDirtyGen uint64

	// Local committed copy.
	localSeq     uint64
	localValid   bool
	localDamaged bool

	// Remote (buddy) committed copy.
	remoteSeq    uint64
	remoteValid  bool
	remoteHolder int

	// Last two shipped generations (remote commit must flip one of them).
	shipLast, shipPrev uint64
	everShipped        bool

	// Bottom (PFS) copy.
	bottomSeq uint64
	hasBottom bool
}

// Tracer consumes the event bus, maintains the lineage store, and runs the
// online invariant checker. All methods are safe for concurrent use; the
// live introspection server reads while the simulation publishes.
type Tracer struct {
	mu sync.Mutex

	epoch  int
	chunks map[string]*chunkState

	causes   []string
	causeIdx map[string]uint32
	scratch  []byte // chunk keys and causes assembled for a lookup

	faultLog []Record

	violations []Violation
	totalViols int

	records   uint64
	compacted uint64
	tierCount [tierCount]uint64
	opCount   [opCount]uint64

	deepestTier  Tier
	deepestChunk string
	hasRecovery  bool

	// transitions and violCount book "lineage_transitions" (one handle per
	// tier, scoped by the tier's name) and "lineage_violations" (scope
	// "checker") into the observer's registry; detached, they count
	// privately.
	transitions [tierCount]obs.Counters
	violCount   obs.Counters
}

// The tracer's registry counters: one set per scope it books under.
var (
	transitionCounter = obs.NewCounterSet("", "lineage_transitions")
	violationCounter  = obs.NewCounterSet("", "lineage_violations")
)

// Attach builds a tracer over an observer and installs it as an event tap
// (additive, so the SLO flight recorder can listen on the same bus). The
// returned tracer also publishes per-tier transition counters
// ("lineage_transitions" scoped by tier) through the observer's registry.
func Attach(o *obs.Observer) *Tracer {
	t := New()
	rec := o.Recorder(0, "lineage")
	for tier := range t.transitions {
		t.transitions[tier].SetRecorder(rec.Child(Tier(tier).String()))
	}
	t.violCount.SetRecorder(rec.Child("checker"))
	o.AddEventTap(t.Observe)
	return t
}

// New builds a detached tracer (tests feed it synthetic event streams).
func New() *Tracer {
	t := &Tracer{
		chunks:    make(map[string]*chunkState),
		causes:    []string{""},
		causeIdx:  map[string]uint32{"": 0},
		violCount: violationCounter.New(),
	}
	for tier := range t.transitions {
		t.transitions[tier] = transitionCounter.New()
	}
	return t
}

// Observe consumes one bus event. When installed via Attach it runs under
// the observer's mutex: it must not (and does not) publish events back.
func (t *Tracer) Observe(ev obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Type {
	case obs.EvChunkDirty:
		st := t.coreState(&ev)
		seq := attrU64(&ev, "seq")
		st.lastDirtyGen = seq
		t.record(st, &ev, OpDirty, TierDRAM, seq, 0)
	case obs.EvChunkReDirtied:
		st := t.coreState(&ev)
		seq := attrU64(&ev, "seq")
		st.lastDirtyGen = seq
		t.record(st, &ev, OpRedirty, TierDRAM, seq, 0)
	case obs.EvPrecopyCopy:
		st := t.coreState(&ev)
		cause := ""
		if ev.Attrs.Str("raced") == "true" {
			cause = "raced"
		}
		t.record(st, &ev, OpPrecopy, TierLocal, attrU64(&ev, "seq"), t.intern(cause))
	case obs.EvChunkStaged:
		st := t.coreState(&ev)
		seq := attrU64(&ev, "seq")
		st.stagedSeq = seq
		st.node = ev.Node
		cause := ""
		if _, inval := ev.Attrs.Int("inval"); inval {
			// Single-version overwrite: the committed copy is being
			// clobbered in place — invalid until the next commit flip.
			st.localValid = false
			cause = "single-version overwrite"
		}
		t.record(st, &ev, OpStage, TierLocal, seq, t.intern(cause))
	case obs.EvChunkCommit:
		st := t.coreState(&ev)
		seq := attrU64(&ev, "seq")
		if seq == 0 || st.stagedSeq == 0 || seq != st.stagedSeq {
			t.violate(ev, coreKey(ev), "commit-without-stage", fmt.Sprintf(
				"commit flipped seq %d but local NVM staged seq %d this epoch",
				seq, st.stagedSeq))
		}
		if st.lastDirtyGen > seq {
			t.violate(ev, coreKey(ev), "redirty-not-recopied", fmt.Sprintf(
				"commit flipped seq %d after generation %d went dirty — redirty must force a recopy",
				seq, st.lastDirtyGen))
		}
		st.node = ev.Node
		st.localSeq = seq
		st.localValid = true
		st.localDamaged = false
		t.record(st, &ev, OpCommit, TierLocal, seq, 0)
	case obs.EvChunkShipped:
		st := t.state(ev.Chunk)
		seq := attrU64(&ev, "seq")
		if seq == 0 || (st.stagedSeq > 0 && seq > st.stagedSeq) {
			t.violate(ev, ev.Chunk, "ship-unstaged", fmt.Sprintf(
				"helper shipped seq %d but local NVM staged seq %d — a tier cannot forward data it never received",
				seq, st.stagedSeq))
		}
		st.shipPrev, st.shipLast = st.shipLast, seq
		st.everShipped = true
		if h, ok := ev.Attrs.Int("buddy"); ok {
			st.remoteHolder = int(h)
		}
		t.record(st, &ev, OpShip, TierRemote, seq, t.internJoin("buddy ", ev.Attrs.Str("buddy")))
	case obs.EvShipRetry:
		st := t.state(ev.Chunk)
		t.record(st, &ev, OpShipRetry, TierRemote, 0,
			t.intern(ev.Attrs.Str("reason")+" attempt "+ev.Attrs.Str("attempt")))
	case obs.EvRemoteChunkCommit:
		st := t.state(ev.Chunk)
		seq := attrU64(&ev, "seq")
		if !st.everShipped || (seq != st.shipLast && seq != st.shipPrev) {
			t.violate(ev, ev.Chunk, "remote-commit-without-ship", fmt.Sprintf(
				"remote commit flipped seq %d but last shipped generations are %d/%d",
				seq, st.shipPrev, st.shipLast))
		}
		st.remoteSeq = seq
		st.remoteValid = true
		if h, ok := ev.Attrs.Int("buddy"); ok {
			st.remoteHolder = int(h)
		}
		t.record(st, &ev, OpRemoteCommit, TierRemote, seq, 0)
	case obs.EvPFSDrain:
		st := t.state(ev.Chunk)
		seq := attrU64(&ev, "seq")
		st.bottomSeq = seq
		st.hasBottom = true
		t.record(st, &ev, OpDrain, TierBottom, seq, 0)
	case obs.EvChunkCorrupt:
		st := t.state(ev.Chunk)
		seq := attrU64(&ev, "seq")
		if st.localSeq == seq || st.localSeq == 0 {
			st.localDamaged = true
		}
		t.record(st, &ev, OpCorrupt, TierLocal, seq, t.intern(ev.Attrs.Str("cause")))
	case obs.EvChecksumError:
		st := t.coreState(&ev)
		// Salvage clears the damaged commit record: the local copy is gone
		// from the cascade's point of view.
		st.localValid = false
		t.record(st, &ev, OpSalvage, TierLocal, attrU64(&ev, "seq"), t.intern(ev.Attrs.Str("action")))
	case obs.EvRestore:
		t.observeRestore(ev)
	case obs.EvChunkRecovered:
		t.observeRecovered(ev)
	case obs.EvFailure:
		t.observeFailure(ev)
		t.logFault(ev, string(ev.Type)+" "+ev.Attrs.Str("kind"))
	case obs.EvRecovery:
		t.advanceEpoch()
		t.logFault(ev, "recovery kind="+ev.Attrs.Str("kind")+" resume_iter="+ev.Attrs.Str("resume_iter"))
	case obs.EvLinkFlap:
		t.logFault(ev, "link-flap factor="+ev.Attrs.Str("factor")+" secs="+ev.Attrs.Str("secs"))
	case obs.EvLinkRestore:
		t.logFault(ev, "link-restore")
	case obs.EvBuddyFailover:
		t.logFault(ev, "buddy-failover "+ev.Attrs.Str("from")+"->"+ev.Attrs.Str("to"))
	case obs.EvNVMCorrupt, obs.EvFailureSkipped:
		t.logFault(ev, string(ev.Type))
	}
}

func (t *Tracer) observeRestore(ev obs.Event) {
	key := coreKey(ev)
	st := t.state(key)
	seq := attrU64(&ev, "seq")
	source := ev.Attrs.Str("source")
	switch source {
	case "local", "lazy":
		if st.localDamaged && st.localValid && seq != 0 && seq == st.localSeq {
			t.violate(ev, key, "stale-recovery", fmt.Sprintf(
				"restored generation %d from local NVM although it was reported corrupted",
				seq))
		}
		// The restored payload is generation `seq` in the previous
		// incarnation's domain; `reseq` renumbers it in this incarnation's,
		// so later ships of the same bytes check out against it.
		st.stagedSeq = attrU64(&ev, "reseq")
		st.node = ev.Node
		t.record(st, &ev, OpRestore, TierLocal, seq, t.intern(source))
	case "remote":
		t.record(st, &ev, OpRestore, TierRemote, seq, t.intern(source))
	case "bottom":
		t.record(st, &ev, OpRestore, TierBottom, seq, t.intern(source))
	default:
		t.record(st, &ev, OpRestore, TierLocal, seq, t.intern(source))
	}
}

func (t *Tracer) observeRecovered(ev obs.Event) {
	key := ev.Chunk
	st := t.state(key)
	seq := attrU64(&ev, "seq")
	tierName := ev.Attrs.Str("tier")
	tier, depth := TierLocal, 0
	switch tierName {
	case "remote":
		tier, depth = TierRemote, 2
		// A chunk served by the remote tier must have actually been shipped
		// and remote-committed there — unless the tier reconstructs without
		// per-chunk provenance (erasure parity reports seq 0).
		if seq > 0 && !st.remoteValid {
			t.violate(ev, key, "commit-without-stage", fmt.Sprintf(
				"cascade served seq %d from the remote tier, which never remote-committed this chunk", seq))
		}
		if seq > 0 && st.remoteValid && seq != st.remoteSeq {
			t.violate(ev, key, "stale-recovery", fmt.Sprintf(
				"remote tier served seq %d but its committed copy is seq %d", seq, st.remoteSeq))
		}
	case "bottom":
		tier, depth = TierBottom, 3
		if st.remoteValid {
			t.violate(ev, key, "stale-recovery", fmt.Sprintf(
				"cascade fell through to the bottom tier (seq %d) although a live remote copy (seq %d at node %d) survived",
				seq, st.remoteSeq, st.remoteHolder))
		}
		if st.hasBottom && seq != st.bottomSeq {
			t.violate(ev, key, "stale-recovery", fmt.Sprintf(
				"bottom tier served seq %d but the newest drained object is seq %d", seq, st.bottomSeq))
		}
	case "lost":
		depth = 4
		if st.remoteValid || st.localValid {
			t.violate(ev, key, "stale-recovery", fmt.Sprintf(
				"chunk declared lost although a surviving copy exists (local valid=%t seq=%d, remote valid=%t seq=%d)",
				st.localValid, st.localSeq, st.remoteValid, st.remoteSeq))
		}
	}
	if depth > int(t.deepestTier) || t.deepestChunk == "" {
		if depth >= 2 || t.deepestChunk == "" {
			t.deepestTier = tier
			if depth == 4 {
				t.deepestTier = TierBottom + 1 - 1 // lost keeps the bottom tier label
			}
			t.deepestChunk = key
		}
	}
	t.record(st, &ev, OpRecovered, tier, seq, t.intern("tier "+tierName))
}

// observeFailure invalidates every copy a hard node loss takes with it: the
// local copies of chunks owned by the failed node(s), and the remote copies
// they held for their buddy sources. Correlated domain outages carry their
// full victim set in the event's "victims" attribute (the whole rack/zone
// fails atomically) plus a "hard" flag (soft outages keep NVM intact).
func (t *Tracer) observeFailure(ev obs.Event) {
	kind := ev.Attrs.Str("kind")
	hard := kind == "hard" || kind == "buddy-loss"
	if h := ev.Attrs.Str("hard"); h != "" {
		hard = h == "true"
	}
	if !hard {
		return
	}
	// Domain outages carry their whole victim set; their ev.Node is the
	// spec-mandated zero and must not be read as a victim. Point faults
	// have no victims attribute — their single victim is ev.Node.
	dead := map[int]bool{}
	if vs := ev.Attrs.Str("victims"); vs != "" {
		for _, s := range strings.Split(vs, ",") {
			if n, err := strconv.Atoi(s); err == nil {
				dead[n] = true
			}
		}
	} else {
		dead[ev.Node] = true
	}
	for _, st := range t.chunks {
		if dead[st.node] {
			st.localValid = false
		}
		if st.remoteValid && dead[st.remoteHolder] {
			st.remoteValid = false
			st.remoteSeq = 0
		}
	}
}

// advanceEpoch rolls the recovery epoch: per-chunk sequence domains reset
// (each process incarnation restarts its modification counter) and records
// older than the previous epoch compact into per-op counts.
func (t *Tracer) advanceEpoch() {
	t.epoch++
	t.hasRecovery = true
	keepFrom := uint16(0)
	if t.epoch >= 2 {
		keepFrom = uint16(t.epoch - 1)
	}
	for _, st := range t.chunks {
		st.stagedSeq = 0
		st.lastDirtyGen = 0
		drop := 0
		for i := 0; i < st.ring.n; i++ {
			if st.ring.at(i).epoch >= keepFrom {
				break
			}
			drop++
		}
		if drop > 0 {
			for i := 0; i < drop; i++ {
				st.fold(st.ring.at(i))
			}
			st.ring.dropOldest(drop)
			t.compacted += uint64(drop)
		}
	}
}

func (st *chunkState) fold(rec encRecord) {
	if st.compact == nil {
		st.compact = make(map[Op]uint64)
	}
	st.compact[Op(rec.op)]++
}

// state finds or creates a chunk's tracker state.
func (t *Tracer) state(key string) *chunkState {
	st, ok := t.chunks[key]
	if !ok {
		st = &chunkState{node: -1, remoteHolder: -1}
		t.chunks[key] = st
	}
	return st
}

// record appends one lineage record and bumps the tier transition counters.
func (t *Tracer) record(st *chunkState, ev *obs.Event, op Op, tier Tier, seq uint64, cause uint32) {
	rec := encRecord{
		tus: ev.TUS, seq: seq, bytes: ev.Bytes,
		op: uint8(op), tier: uint8(tier),
		epoch: uint16(t.epoch), node: int16(ev.Node),
		cause: cause,
	}
	if evicted, full := st.ring.push(rec); full {
		st.fold(evicted)
		t.compacted++
	}
	t.records++
	t.opCount[op]++
	t.tierCount[tier]++
	t.transitions[tier][0].Add(1)
}

// logFault appends to the bounded cluster-wide fault log.
func (t *Tracer) logFault(ev obs.Event, detail string) {
	if len(t.faultLog) >= faultLogCap {
		// Keep the newest half; old faults have usually been compacted out
		// of the rings they explain anyway.
		t.faultLog = append(t.faultLog[:0], t.faultLog[faultLogCap/2:]...)
	}
	t.faultLog = append(t.faultLog, Record{
		TUS: ev.TUS, Epoch: t.epoch, Op: opFault.String(), Node: ev.Node,
		Cause: detail,
	})
	t.opCount[opFault]++
}

func (t *Tracer) violate(ev obs.Event, chunk, rule, detail string) {
	t.totalViols++
	if len(t.violations) < maxViolations {
		t.violations = append(t.violations, Violation{
			TUS: ev.TUS, Epoch: t.epoch, Chunk: chunk, Rule: rule, Detail: detail,
		})
	}
	t.violCount[0].Add(1)
}

// internJoin is intern(a+b), assembling the cause in a reused buffer so a
// cause already interned costs no allocation.
func (t *Tracer) internJoin(a, b string) uint32 {
	t.scratch = append(append(t.scratch[:0], a...), b...)
	if id, ok := t.causeIdx[string(t.scratch)]; ok {
		return id
	}
	return t.intern(string(t.scratch))
}

func (t *Tracer) intern(cause string) uint32 {
	if cause == "" {
		return 0
	}
	if id, ok := t.causeIdx[cause]; ok {
		return id
	}
	id := uint32(len(t.causes))
	t.causes = append(t.causes, cause)
	t.causeIdx[cause] = id
	return id
}

// coreState is state(coreKey(ev)) without building the key string for a
// chunk already tracked: the key is assembled in a reused buffer, and the
// map lookup by its bytes does not allocate.
func (t *Tracer) coreState(ev *obs.Event) *chunkState {
	if ev.Actor == "" {
		return t.state(ev.Chunk)
	}
	t.scratch = append(append(append(t.scratch[:0], ev.Actor...), '/'), ev.Chunk...)
	if st, ok := t.chunks[string(t.scratch)]; ok {
		return st
	}
	return t.state(string(t.scratch))
}

// coreKey derives the cluster-wide chunk key for core-side events, whose
// Chunk field is the bare variable name scoped by the emitting process
// (the recorder's actor).
func coreKey(ev obs.Event) string {
	if ev.Actor == "" {
		return ev.Chunk
	}
	return ev.Actor + "/" + ev.Chunk
}

// attrU64 reads a sequence attribute, 0 when absent.
func attrU64(ev *obs.Event, key string) uint64 {
	v, _ := ev.Attrs.Int(key)
	return uint64(v)
}

// --- read side -------------------------------------------------------------

// History is one chunk's decoded lineage.
type History struct {
	Chunk string `json:"chunk"`
	// Compacted counts records folded out of the ring, per op.
	Compacted map[string]uint64 `json:"compacted,omitempty"`
	Records   []Record          `json:"records"`
}

// Chunks lists every traced chunk key, sorted.
func (t *Tracer) Chunks() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.chunks))
	for k := range t.chunks {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// History returns one chunk's decoded lineage; ok is false for an unknown
// chunk key.
func (t *Tracer) History(chunk string) (History, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.chunks[chunk]
	if !ok {
		return History{}, false
	}
	return t.decode(chunk, st), true
}

func (t *Tracer) decode(key string, st *chunkState) History {
	h := History{Chunk: key, Records: make([]Record, 0, st.ring.n)}
	if len(st.compact) > 0 {
		h.Compacted = make(map[string]uint64, len(st.compact))
		for op, n := range st.compact {
			h.Compacted[op.String()] = n
		}
	}
	for i := 0; i < st.ring.n; i++ {
		h.Records = append(h.Records, t.decodeRec(st.ring.at(i)))
	}
	return h
}

func (t *Tracer) decodeRec(rec encRecord) Record {
	return Record{
		TUS:   rec.tus,
		Epoch: int(rec.epoch),
		Op:    Op(rec.op).String(),
		Tier:  Tier(rec.tier).String(),
		Node:  int(rec.node),
		Seq:   rec.seq,
		Bytes: rec.bytes,
		Cause: t.causes[rec.cause],
	}
}

// TierRecords returns every record that touched a tier, across chunks,
// ordered by virtual time.
func (t *Tracer) TierRecords(tier string) []History {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []History
	keys := make([]string, 0, len(t.chunks))
	for k := range t.chunks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := t.chunks[k]
		h := History{Chunk: k}
		for i := 0; i < st.ring.n; i++ {
			rec := st.ring.at(i)
			if Tier(rec.tier).String() == tier {
				h.Records = append(h.Records, t.decodeRec(rec))
			}
		}
		if len(h.Records) > 0 {
			out = append(out, h)
		}
	}
	return out
}

// Violations returns the retained invariant breaches (Total may exceed the
// retained detail count).
func (t *Tracer) Violations() []Violation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Violation(nil), t.violations...)
}

// ViolationCount returns the total number of breaches observed.
func (t *Tracer) ViolationCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalViols
}

// Epoch returns the current recovery epoch (0 before any failure recovery).
func (t *Tracer) Epoch() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Err returns nil when no invariant broke, else an error carrying the first
// violation and the offending chunk's full lineage — the loud failure
// strict mode surfaces.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.totalViols == 0 {
		return nil
	}
	v := t.violations[0]
	msg := fmt.Sprintf("lineage: %d invariant violation(s); first: %s", t.totalViols, v)
	if st, ok := t.chunks[v.Chunk]; ok {
		h := t.decode(v.Chunk, st)
		msg += fmt.Sprintf("\nlineage of %s (%d records):", v.Chunk, len(h.Records))
		for _, r := range h.Records {
			msg += "\n  " + formatRecord(r)
		}
	}
	return fmt.Errorf("%s", msg)
}

// Summary is the report-facing rollup.
type Summary struct {
	Epochs           int               `json:"epochs"`
	Chunks           int               `json:"chunks"`
	Records          uint64            `json:"records"`
	CompactedRecords uint64            `json:"compacted_records"`
	TierTransitions  map[string]uint64 `json:"tier_transitions"`
	OpCounts         map[string]uint64 `json:"op_counts"`
	// DeepestRecovery names the chunk whose post-failure recovery read the
	// lowest tier (the run's worst-case recovery path).
	DeepestRecoveryChunk string `json:"deepest_recovery_chunk,omitempty"`
	DeepestRecoveryTier  string `json:"deepest_recovery_tier,omitempty"`
	Violations           int    `json:"violations"`
}

// Summary rolls the tracer up for the RunReport.
func (t *Tracer) Summary() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{
		Epochs:           t.epoch + 1,
		Chunks:           len(t.chunks),
		Records:          t.records,
		CompactedRecords: t.compacted,
		TierTransitions:  make(map[string]uint64, tierCount),
		OpCounts:         make(map[string]uint64, opCount),
		Violations:       t.totalViols,
	}
	for i, n := range t.tierCount {
		if n > 0 {
			s.TierTransitions[Tier(i).String()] = n
		}
	}
	for i, n := range t.opCount {
		if n > 0 {
			s.OpCounts[Op(i).String()] = n
		}
	}
	if t.hasRecovery && t.deepestChunk != "" {
		s.DeepestRecoveryChunk = t.deepestChunk
		s.DeepestRecoveryTier = t.deepestTier.String()
	}
	return s
}
