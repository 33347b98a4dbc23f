// Package remote implements the paper's remote-checkpoint machinery: an
// ARMCI-like remote memory interface over the RDMA fabric, plus the per-node
// asynchronous helper process (Section V) that owns remote checkpoints. Each
// node has a buddy node holding a two-version remote copy of its checkpoint
// chunks in the buddy's NVM.
//
// Two policies are provided. AsyncBurst is the paper's baseline: the helper
// sits idle until the remote checkpoint point, then ships every chunk at full
// rate, overlapped with the application's next compute phase — producing the
// interconnect bursts of Figure 10. PreCopy ships chunks incrementally as
// soon as the local checkpoint path stages them (optionally after a
// DCPC-style delay into the remote interval and rate-capped), so the remote
// checkpoint point finds most data already resident and the peak interconnect
// usage drops by roughly half.
package remote

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// Scheme selects the helper policy.
type Scheme int

const (
	// AsyncBurst ships everything at the remote checkpoint point.
	AsyncBurst Scheme = iota
	// PreCopy ships staged chunks incrementally ahead of the checkpoint.
	PreCopy
)

func (s Scheme) String() string {
	if s == PreCopy {
		return "precopy"
	}
	return "burst"
}

// Config tunes a node's helper agent.
type Config struct {
	Scheme Scheme
	// RateCap throttles pre-copy shipping in bytes/sec (0 = uncapped).
	// Burst catch-up traffic at the checkpoint point is never capped.
	RateCap float64
	// Delay holds pre-copy shipping until this long after the start of
	// each remote interval (the paper's remote DCPCP delay; 0 ships as
	// soon as data is staged).
	Delay time.Duration
	// Rec publishes helper activity — ship events, wake/sleep edges and
	// spans on the helper lane — onto the run's observability bus (nil-safe).
	// It is scoped to the helper's node as the bus numbers it; the buddy
	// nodes its events name are numbered alike.
	Rec *obs.Recorder
}

// The helper's fixed protocol. It polls every scanTick while idle. A ship
// attempt whose estimated wire time under the current link state exceeds
// shipTimeout (a degraded link), or whose buddy is down, counts as failed
// and is retried after a backoff that starts at retryBackoff and doubles up
// to maxRetryBackoff. After maxShipRetries retries of one chunk pass the
// helper fails over to a live buddy, or gives the pass up and degrades to
// whatever the bottom tier holds. The timeout is generous (rate-capped
// pre-copy legitimately ships large chunks over seconds) and trips only
// when fault injection degrades a link by an order of magnitude.
const (
	scanTick        = 200 * time.Millisecond
	shipTimeout     = 60 * time.Second
	maxShipRetries  = 6
	retryBackoff    = 100 * time.Millisecond
	maxRetryBackoff = 5 * time.Second
)

// chunkKey identifies a chunk across the mesh.
type chunkKey struct {
	proc string
	id   uint64
}

// remoteChunk is the buddy-side two-version container. Each version is the
// staged payload itself, shared with the source node's NVM slot: a payload
// is immutable.
type remoteChunk struct {
	qname     string // "<proc>/<chunk>", set at first ship (see objName)
	size      int64
	versions  [2]nvmkernel.Payload
	seqs      [2]uint64
	plen      int32 // qname[:plen] is the source process's name
	committed int8  // -1 before first remote commit
	inflight  bool
}

// proc returns the name of the process the copy belongs to.
func (rc *remoteChunk) proc() string { return rc.qname[:rc.plen] }

// objName renders the cluster-wide object name, "<proc>/<chunk>", preferring
// the variable name and falling back to the numeric id for unnamed chunks.
// It runs once per copy, at its first ship; every later use reads
// remoteChunk.qname.
func objName(key chunkKey, name string) string {
	if name != "" {
		return key.proc + "/" + name
	}
	return fmt.Sprintf("%s/%d", key.proc, key.id)
}

// Mesh owns the buddy-side remote stores and the agents.
type Mesh struct {
	env    *sim.Env
	fabric *interconnect.Fabric
	nvm    []*mem.Device // per-node NVM (destination write charges + capacity)
	agents []*Agent
	data   []map[chunkKey]*remoteChunk // indexed by holding (buddy) node
	down   []bool                      // per-node liveness, set by fault injection
	// inflight lists, per holding node, the copies shipped there since their
	// last remote commit, so a commit visits only those instead of every
	// copy the holder keeps.
	inflight [][]*remoteChunk

	// Counters are the mesh's counts (meshCounters), readable by short name
	// and booked into the registry with a remote_ prefix. Ships are counted
	// once, per agent.
	Counters obs.Counters
}

// Mesh counters, indexing Mesh.Counters.
const (
	cFetches = iota
	cRemoteCommits
)

var meshCounters = obs.NewCounterSet("remote_", []string{
	cFetches:       "fetches",
	cRemoteCommits: "commits",
}...)

// SetRecorder attaches the mesh's counters to the run's observability bus,
// as "remote_fetches" / "remote_commits".
func (m *Mesh) SetRecorder(r *obs.Recorder) { m.Counters.SetRecorder(r) }

// NewMesh builds a remote-checkpoint mesh over a fabric; nvm[i] is node i's
// NVM device.
func NewMesh(env *sim.Env, fabric *interconnect.Fabric, nvm []*mem.Device) *Mesh {
	if len(nvm) != fabric.Nodes() {
		panic("remote: nvm device count must match fabric nodes")
	}
	m := &Mesh{
		env:    env,
		fabric: fabric,
		nvm:    nvm,
		agents: make([]*Agent, fabric.Nodes()),
		data:   make([]map[chunkKey]*remoteChunk, fabric.Nodes()),
		down:   make([]bool, fabric.Nodes()),

		inflight: make([][]*remoteChunk, fabric.Nodes()),
		Counters: meshCounters.New(),
	}
	for i := range m.data {
		m.data[i] = make(map[chunkKey]*remoteChunk)
	}
	return m
}

// Agent returns node i's helper agent (nil until AddAgent).
func (m *Mesh) Agent(node int) *Agent { return m.agents[node] }

// AddAgent starts the helper process for a node, shipping to buddy.
func (m *Mesh) AddAgent(node, buddy int, cfg Config) *Agent {
	if m.agents[node] != nil {
		panic(fmt.Sprintf("remote: node %d already has an agent", node))
	}
	a := &Agent{
		mesh:    m,
		node:    node,
		buddy:   buddy,
		cfg:     cfg,
		wake:    sim.NewSignal(m.env),
		shipped: make(map[chunkKey]uint64),
		procs:   make(map[string]bool),

		burstTarget: make(map[chunkKey]uint64),
		Counters:    agentCounters.New(),
	}
	a.Counters.SetRecorder(cfg.Rec)
	a.intervalStart = m.env.Now()
	a.proc = m.env.Go(fmt.Sprintf("helper/node%d", node), a.run)
	m.agents[node] = a
	return a
}

// RemoveAgent stops and detaches a node's agent (no-op if absent). Remote
// data already shipped to buddies stays available for Fetch once a new agent
// is attached.
func (m *Mesh) RemoveAgent(node int) {
	if a := m.agents[node]; a != nil {
		a.Stop()
		m.agents[node] = nil
	}
}

// SetNodeDown flips a node's liveness. Helpers refuse to ship toward a down
// buddy (they back off, then fail over); Fetch treats data held at a down
// node as unreachable.
func (m *Mesh) SetNodeDown(node int, down bool) { m.down[node] = down }

// DropNode discards every remote copy held at a node — a hard failure took
// its NVM. Copies OF the node's own data, held at its buddy, survive.
func (m *Mesh) DropNode(node int) {
	m.data[node] = make(map[chunkKey]*remoteChunk)
	m.inflight[node] = nil
}

// Fetch retrieves the committed remote copy of a chunk belonging to procName
// on srcNode, pulling it from the buddy across the fabric into srcNode's
// NVM — the hard-failure recovery path. seq is the committed copy's staged
// generation (for lineage); ok is false when the buddy holds no committed
// version or is itself down. The returned payload is the one core staged,
// shared and immutable.
func (m *Mesh) Fetch(p *sim.Proc, srcNode int, procName string, id uint64) (nvmkernel.Payload, int64, uint64, bool) {
	a := m.agents[srcNode]
	if a == nil || m.down[a.buddy] {
		return nvmkernel.Payload{}, 0, 0, false
	}
	rc, ok := m.data[a.buddy][chunkKey{procName, id}]
	if !ok || rc.committed < 0 {
		return nvmkernel.Payload{}, 0, 0, false
	}
	m.Counters[cFetches].Add(1)
	m.fabric.RDMARead(p, a.buddy, srcNode, rc.size)
	m.nvm[srcNode].WriteBytes(p, rc.size)
	return rc.versions[rc.committed], rc.size, rc.seqs[rc.committed], true
}

// HolderOf returns which node holds srcNode's remote checkpoints, or -1
// when srcNode has no agent (e.g. it was removed by fault injection).
func (m *Mesh) HolderOf(srcNode int) int {
	if a := m.agents[srcNode]; a != nil {
		return a.buddy
	}
	return -1
}

// CommittedObject identifies one committed remote chunk copy for drains to
// lower storage levels (the PFS); CommittedData reads it back by the key it
// carries.
type CommittedObject struct {
	Name    string // "<proc>/<chunkName>" — the cluster-wide lineage key
	Size    int64
	Version uint64 // the committed slot's staged sequence

	key chunkKey
}

// CommittedList enumerates the committed remote copies held at a node, in
// deterministic (name) order.
func (m *Mesh) CommittedList(holder int) []CommittedObject {
	var out []CommittedObject
	for key, rc := range m.data[holder] {
		if rc.committed < 0 {
			continue
		}
		out = append(out, CommittedObject{
			Name:    rc.qname,
			Size:    rc.size,
			Version: rc.seqs[rc.committed],
			key:     key,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CommittedData returns the committed payload of a copy CommittedList
// listed, charging the holder's NVM read path. It reads the committed slot
// as it is now: a copy dropped with its holder's NVM (DropNode) or no
// longer committed reads as missing. Like Fetch, it returns the shared
// staged payload.
func (m *Mesh) CommittedData(p *sim.Proc, holder int, obj CommittedObject) (nvmkernel.Payload, bool) {
	rc, ok := m.data[holder][obj.key]
	if !ok || rc.committed < 0 {
		return nvmkernel.Payload{}, false
	}
	m.nvm[holder].ReadBytes(p, rc.size)
	return rc.versions[rc.committed], true
}

// Agent is one node's asynchronous checkpoint helper.
type Agent struct {
	mesh  *Mesh
	node  int
	buddy int
	cfg   Config
	proc  *sim.Proc
	wake  *sim.Signal

	queues        []*shipQueue        // one per registered store, in registration order
	procs         map[string]bool     // process names of the registered stores
	shipped       map[chunkKey]uint64 // last shipped CleanSeq
	intervalStart time.Duration
	bursting      bool
	burstTarget   map[chunkKey]uint64 // staged seqs captured at trigger
	burstDone     *sim.Completion
	stopped       bool

	// Meter tracks helper busy time — Table V's helper-core utilization.
	Meter obs.Meter
	// Counters are the helper's counts (agentCounters), readable by short
	// name and booked into cfg.Rec's registry with a helper_ prefix, which
	// keeps them apart from the per-store checkpoint counters.
	Counters obs.Counters
}

// Agent counters, indexing Agent.Counters.
const (
	cShips = iota
	cShipBytes
	cCommits
	cScanRounds
	cShipRetries
	cShipsDropped
	cBuddyFailovers
)

var agentCounters = obs.NewCounterSet("helper_", []string{
	cShips:          "ships",
	cShipBytes:      "ship_bytes",
	cCommits:        "commits",
	cScanRounds:     "scan_rounds",
	cShipRetries:    "ship_retries",
	cShipsDropped:   "ships_dropped",
	cBuddyFailovers: "buddy_failovers",
}...)

// Register adds a local rank's store to the helper's scan set, seeding its
// ship queue with the chunks it already holds.
func (a *Agent) Register(s *core.Store) {
	q := &shipQueue{store: s, proc: s.Proc().Name()}
	s.OnStage(q.push)
	q.seed()
	a.queues = append(a.queues, q)
	a.procs[q.proc] = true
}

// BeginRemoteInterval marks the start of a remote checkpoint interval,
// re-arming the pre-copy delay.
func (a *Agent) BeginRemoteInterval() {
	a.intervalStart = a.mesh.env.Now()
	if a.cfg.Scheme == PreCopy && a.cfg.Delay > 0 {
		a.mesh.env.Schedule(a.cfg.Delay, a.wake.Broadcast)
	}
	a.wake.Broadcast()
}

// TriggerRemote starts a remote checkpoint: the helper catches up everything
// staged as of this instant that is not yet resident at the buddy, then
// commits the remote versions. The catch-up overlaps the application's next
// compute phase (Figure 5's non-blocking remote checkpoint) and, in pre-copy
// mode, stays rate-capped so the interconnect peak is bounded. The returned
// completion fires when the remote versions commit; the application itself
// does not block on it.
func (a *Agent) TriggerRemote(p *sim.Proc) *sim.Completion {
	if a.bursting {
		return a.burstDone
	}
	a.bursting = true
	a.burstDone = sim.NewCompletion(a.mesh.env)
	clear(a.burstTarget)
	for _, q := range a.queues {
		k := q.store.Kernel()
		k.MetaLock.Lock(p)
		for i := 0; i < q.store.NumChunks(); i++ {
			if c := q.store.ChunkAt(i); c.Persistent && c.StagedSeq() > 0 {
				a.burstTarget[chunkKey{q.proc, c.ID}] = c.StagedSeq()
			}
		}
		k.MetaLock.Unlock(p)
	}
	a.wake.Broadcast()
	return a.burstDone
}

// Stop terminates the helper. An in-flight burst is abandoned and its
// completion released so no waiter hangs on a dead agent.
func (a *Agent) Stop() {
	a.stopped = true
	if a.proc != nil && !a.proc.Done() {
		a.proc.Kill()
	}
	if a.bursting {
		a.bursting = false
		a.burstDone.Complete()
	}
}

// run is the helper main loop. Wake/sleep edges (not every scan tick) are
// published as events, so the bus shows the helper's duty cycle without
// drowning in polls.
func (a *Agent) run(p *sim.Proc) {
	busy := false
	for !a.stopped {
		st, store := a.nextToShip(p)
		if store == nil {
			if a.bursting {
				// Burst drained: commit the remote checkpoint.
				a.commitRemote(p)
				a.bursting = false
				a.burstDone.Complete()
			}
			if busy {
				busy = false
				a.cfg.Rec.Log(obs.EvHelperSleep, "", 0)
			}
			a.wake.WaitTimeout(p, scanTick)
			continue
		}
		if !busy {
			busy = true
			a.cfg.Rec.Log(obs.EvHelperWake, "", 0)
		}
		a.shipWithRetry(p, st, store)
	}
}

// shipBlocked is the pre-flight check for one ship attempt: a non-empty
// reason means the attempt would fail (buddy dead, link down, or the link
// so degraded the estimated wire time blows the per-ship timeout).
func (a *Agent) shipBlocked(size int64) string {
	m := a.mesh
	if m.down[a.buddy] {
		return "buddy-down"
	}
	eta, ok := m.fabric.EstimateTransfer(a.node, a.buddy, size, a.cfg.RateCap)
	if !ok {
		return "link-down"
	}
	if eta > shipTimeout {
		return "ship-timeout"
	}
	return ""
}

// shipWithRetry wraps ship with the degraded-mode protocol: blocked attempts
// back off exponentially (bounded), then the helper fails over to a live
// buddy if its own is dead, or gives this pass up — the chunk stays
// unshipped and the next scan retries, so a transient outage self-heals
// while a permanent one degrades to the bottom tier.
func (a *Agent) shipWithRetry(p *sim.Proc, st core.ChunkState, store *core.Store) {
	attempt := 0
	for {
		reason := a.shipBlocked(st.Size)
		if reason == "" {
			a.ship(p, st, store)
			return
		}
		if attempt < maxShipRetries {
			a.Counters[cShipRetries].Add(1)
			a.cfg.Rec.Log(obs.EvShipRetry, store.Proc().Name()+"/"+st.Name, st.Size,
				obs.Str("reason", reason), obs.Int("attempt", int64(attempt)))
			backoff := retryBackoff << uint(attempt)
			if backoff > maxRetryBackoff {
				backoff = maxRetryBackoff
			}
			p.Sleep(backoff)
			attempt++
			continue
		}
		if a.mesh.down[a.buddy] && a.failover() {
			attempt = 0
			continue
		}
		a.Counters[cShipsDropped].Add(1)
		return
	}
}

// failover re-buddies the helper to the nearest live node, invalidating its
// shipped ledger so every chunk re-ships to the new holder. Returns false
// when no live candidate exists.
func (a *Agent) failover() bool {
	m := a.mesh
	n := len(m.data)
	for k := 1; k < n; k++ {
		cand := (a.buddy + k) % n
		if cand == a.node || m.down[cand] {
			continue
		}
		old := a.buddy
		a.buddy = cand
		clear(a.shipped)
		for _, q := range a.queues {
			q.seed()
		}
		a.Counters[cBuddyFailovers].Add(1)
		a.cfg.Rec.Log(obs.EvBuddyFailover, "", 0,
			obs.Int("from", a.busNode(old)), obs.Int("to", a.busNode(cand)))
		return true
	}
	return false
}

// nextToShip finds, in registration order, the first store holding a chunk
// whose staged data is newer than what the buddy holds. While a remote
// checkpoint is draining, only the chunks belonging to its trigger-time cut
// are shipped; between checkpoints, pre-copy mode ships anything freshly
// staged once the interval delay has passed. Each store is examined under its
// node's metadata lock, as the checkpoint path's own updates are, and the
// chunk's state is copied before the lock is released.
func (a *Agent) nextToShip(p *sim.Proc) (core.ChunkState, *core.Store) {
	if !a.bursting {
		if a.cfg.Scheme != PreCopy || a.mesh.env.Now() < a.intervalStart+a.cfg.Delay {
			return core.ChunkState{}, nil
		}
	}
	a.Counters[cScanRounds].Add(1)
	for _, q := range a.queues {
		k := q.store.Kernel()
		k.MetaLock.Lock(p)
		c := a.pick(q)
		var st core.ChunkState
		if c != nil {
			st = c.State()
		}
		k.MetaLock.Unlock(p)
		if c != nil {
			return st, q.store
		}
	}
	return core.ChunkState{}, nil
}

// shipQueue holds one registered store's ship candidates, fed by the store's
// stage hook: a bitset over the chunks' allocation sequence numbers
// (core.Chunk.AllocSeq), so a walk visits candidates in allocation order —
// the order a rescan of the whole store would meet them in.
type shipQueue struct {
	store  *core.Store
	proc   string
	set    []uint64      // bit i: the chunk with AllocSeq i is queued
	chunks []*core.Chunk // indexed by AllocSeq
	lo     int           // every word of set below lo is zero
}

// push queues a chunk whose staged sequence was just assigned. Chunks no
// longer in the store (AllocSeq 0) are never shipped and are ignored.
func (q *shipQueue) push(c *core.Chunk) {
	i := c.AllocSeq()
	if i == 0 {
		return
	}
	for len(q.chunks) <= i {
		q.chunks = append(q.chunks, nil)
	}
	q.chunks[i] = c
	w := i / 64
	for len(q.set) <= w {
		q.set = append(q.set, 0)
	}
	q.set[w] |= 1 << (i % 64)
	q.lo = min(q.lo, w)
}

// seed queues every chunk the store holds: on registration, and after a
// failover forgets what the old buddy had.
func (q *shipQueue) seed() {
	for i := 0; i < q.store.NumChunks(); i++ {
		q.push(q.store.ChunkAt(i))
	}
}

// pick returns q's first queued chunk, in allocation order, that the helper
// should ship now — the chunk a rescan of the store would pick. It drops the
// entries it passes that cannot qualify again until the chunk is staged anew
// (which re-queues it) or a failover re-seeds the queue: deleted chunks,
// chunks never staged, and chunks the buddy already holds at their current
// staged sequence. A chunk outside a draining burst's cut that still awaits
// its pre-copy ship stays queued for after the burst.
func (a *Agent) pick(q *shipQueue) *core.Chunk {
	for q.lo < len(q.set) && q.set[q.lo] == 0 {
		q.lo++
	}
	for w := q.lo; w < len(q.set); w++ {
		for word := q.set[w]; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			c := q.chunks[i]
			seq := c.StagedSeq()
			if c.AllocSeq() == i && c.Persistent && seq > 0 {
				key := chunkKey{q.proc, c.ID}
				shipped := a.shipped[key]
				if a.bursting && a.burstTarget[key] > shipped || !a.bursting && shipped < seq {
					return c
				}
				if shipped < seq {
					continue // outside the burst's cut; pre-copy ships it later
				}
			}
			q.set[w] &^= 1 << (i % 64)
		}
	}
	return nil
}

// HelperCPURate is the helper core's effective processing rate for
// checkpoint data (metadata walk, chunk read, work-request posting, buffer
// management): the CPU side of shipping a chunk, as distinct from the wire
// time, which is NIC DMA. It determines the Table V utilization numbers.
const HelperCPURate = 400e6 // bytes/sec

// ship moves one chunk's staged payload to the buddy: local NVM read, RDMA
// write across the fabric, buddy NVM write, and an in-progress version
// update on the buddy. The transfer is charged in virtual time; the buddy's
// version slot then holds the staged payload itself. Only
// the helper's CPU work is metered — the RDMA transfer itself is NIC DMA and
// costs wall time, not helper CPU.
func (a *Agent) ship(p *sim.Proc, st core.ChunkState, store *core.Store) {
	key := chunkKey{store.Proc().Name(), st.ID}
	data, ok := store.StagedData(p, st.ID)
	if !ok {
		return
	}
	m := a.mesh
	rc, exists := m.data[a.buddy][key]
	if !exists {
		if err := m.nvm[a.buddy].Reserve(2 * st.Size); err != nil {
			// Buddy NVM full: surface loudly — experiments must size NVM.
			panic(fmt.Sprintf("remote: buddy node %d NVM exhausted shipping %s/%d: %v",
				a.buddy, key.proc, key.id, err))
		}
		rc = &remoteChunk{qname: objName(key, st.Name), size: st.Size, plen: int32(len(key.proc)), committed: -1}
		m.data[a.buddy][key] = rc
	}
	shipStart := p.Now()
	defer func() {
		a.cfg.Rec.LogSpan(shipStart, obs.EvChunkShipped, rc.qname, st.Size,
			obs.Int("buddy", a.busNode(a.buddy)), obs.Int("seq", int64(st.CleanSeq)))
	}()
	a.Meter.Start(p.Now())
	cpuStart := p.Now()

	// Local NVM read of the staged chunk plus the helper's per-byte CPU
	// work, padded up to the HelperCPURate budget.
	store.Kernel().NVM.ReadBytes(p, st.Size)
	cpuBudget := time.Duration(float64(st.Size) / HelperCPURate * float64(time.Second))
	if spent := p.Now() - cpuStart; spent < cpuBudget {
		p.Sleep(cpuBudget - spent)
	}
	a.Meter.Stop(p.Now())
	// Across the wire: NIC DMA, unmetered. The configured rate cap applies
	// to pre-copy shipping and to its checkpoint-time catch-up alike —
	// bounding the peak is the point; the AsyncBurst baseline sets no cap.
	m.fabric.RDMAWrite(p, a.node, a.buddy, st.Size, a.cfg.RateCap)
	// Into the buddy's NVM.
	m.nvm[a.buddy].WriteBytes(p, st.Size)

	slot := 0
	if rc.committed == 0 {
		slot = 1
	}
	rc.versions[slot] = data
	rc.seqs[slot] = st.CleanSeq
	// A holder that lost its NVM during the transfer (DropNode) no longer
	// keeps rc, and no commit may flip it.
	if !rc.inflight && m.data[a.buddy][key] == rc {
		rc.inflight = true
		m.inflight[a.buddy] = append(m.inflight[a.buddy], rc)
	}
	a.shipped[key] = st.CleanSeq

	a.Counters[cShips].Add(1)
	a.Counters[cShipBytes].Add(st.Size)
}

// commitRemote flips the committed version of every chunk of this agent's
// processes shipped to the buddy since its last remote commit — by this agent
// or by one that served the node before it. Chunks from other source nodes
// that happen to share the same buddy are left alone, still in flight.
func (a *Agent) commitRemote(p *sim.Proc) {
	m := a.mesh
	pending := m.inflight[a.buddy]
	others := pending[:0]
	type flipped struct {
		name string
		size int64
		seq  uint64
	}
	var flips []flipped
	for _, rc := range pending {
		if !a.procs[rc.proc()] {
			others = append(others, rc)
			continue
		}
		if rc.committed == 0 {
			rc.committed = 1
		} else {
			rc.committed = 0
		}
		rc.inflight = false
		flips = append(flips, flipped{rc.qname, rc.size, rc.seqs[rc.committed]})
	}
	m.inflight[a.buddy] = others
	// Per-chunk commit events go out in name order, independent of the order
	// the chunks were shipped in.
	slices.SortFunc(flips, func(x, y flipped) int { return strings.Compare(x.name, y.name) })
	for _, f := range flips {
		a.cfg.Rec.Log(obs.EvRemoteChunkCommit, f.name, f.size,
			obs.Int("seq", int64(f.seq)), obs.Int("buddy", a.busNode(a.buddy)))
	}
	a.Counters[cCommits].Add(1)
	m.Counters[cRemoteCommits].Add(1)
	a.cfg.Rec.Log(obs.EvRemoteCommit, "", 0, obs.Int("buddy", a.busNode(a.buddy)))
}

// busNode is mesh node n as the bus numbers it. A mesh numbers its nodes
// from 0; the agent's recorder carries the agent's own node in the bus's
// numbering, which on one shard of a partitioned cluster is offset.
func (a *Agent) busNode(n int) int64 {
	return int64(n + a.cfg.Rec.Node() - a.node)
}
