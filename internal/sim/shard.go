package sim

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// ShardGroup runs several independent environments — the shards of a
// partitioned simulation — in conservative lockstep. Each shard owns its own
// clock, queues, processes and devices; the group's only cross-shard
// structure is the CrossBarrier, so between rendezvous points the shards are
// embarrassingly parallel and their interleaving on host cores cannot affect
// any shard's event order.
type ShardGroup struct {
	envs []*Env
}

// NewShardGroup groups the given environments. The slice order defines shard
// indices, which the merge layer uses as the deterministic tie-breaker.
func NewShardGroup(envs ...*Env) *ShardGroup { return &ShardGroup{envs: envs} }

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.envs) }

// EventsFired sums events dispatched across every shard.
func (g *ShardGroup) EventsFired() uint64 {
	var n uint64
	for _, e := range g.envs {
		n += e.EventsFired()
	}
	return n
}

// MaxNow returns the latest virtual clock across the shards.
func (g *ShardGroup) MaxNow() time.Duration {
	var t time.Duration
	for _, e := range g.envs {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// RunRound advances every shard concurrently, one host goroutine per shard,
// until each either drains idle or pauses at a filled gate (Env.Break). The
// shards share no mutable state, so the round's outcome is independent of
// host scheduling and GOMAXPROCS. A panic inside any shard is re-raised here
// after every shard has stopped, lowest shard index first, so failures also
// surface deterministically.
func (g *ShardGroup) RunRound() {
	if len(g.envs) == 1 {
		g.envs[0].Run()
		return
	}
	panics := make([]any, len(g.envs))
	var wg sync.WaitGroup
	for i, e := range g.envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			e.Run()
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Gate is one shard's side of a CrossBarrier: parties processes Await it;
// when the last one arrives the gate records the shard's local rendezvous
// time and pauses the shard's run loop (Env.Break) so the coordinator can
// align every shard before releasing anyone.
type Gate struct {
	env     *Env
	parties int
	ws      waitq
	arrival time.Duration
	full    bool
}

// Await parks the calling process until the coordinator releases the
// rendezvous. Unlike Barrier.Await, the last arriver parks too: the release
// time is a cross-shard decision this shard cannot take alone.
func (g *Gate) Await(p *Proc) {
	if p == nil || p.env != g.env {
		panic("sim: Gate.Await from a foreign or nil process")
	}
	if len(g.ws)+1 == g.parties {
		g.full = true
		g.arrival = g.env.now
		g.env.Break()
	}
	p.wait(&g.ws, -1)
}

// CrossBarrier is the group's rendezvous coordinator: one Gate per shard.
// Release implements the conservative-lookahead step — within a rendezvous
// interval the shards exchange nothing, so each may run arbitrarily far
// ahead (the lookahead is effectively the whole interval); at the
// rendezvous, no shard proceeds before the slowest one's arrival time.
type CrossBarrier struct {
	gates []*Gate
	// Cycles counts completed cross-shard rendezvous.
	Cycles int
}

// NewCrossBarrier builds a barrier over the group with parties[i] processes
// expected at shard i's gate.
func NewCrossBarrier(g *ShardGroup, parties []int) *CrossBarrier {
	if len(parties) != g.Shards() {
		panic(fmt.Sprintf("sim: NewCrossBarrier with %d party counts for %d shards",
			len(parties), g.Shards()))
	}
	b := &CrossBarrier{gates: make([]*Gate, g.Shards())}
	for i, n := range parties {
		if n < 1 {
			panic(fmt.Sprintf("sim: shard %d gate needs >= 1 party, got %d", i, n))
		}
		b.gates[i] = &Gate{env: g.envs[i], parties: n}
	}
	return b
}

// Gate returns shard i's gate.
func (b *CrossBarrier) Gate(i int) *Gate { return b.gates[i] }

// Full reports whether every gate filled — the group rendezvoused and is
// ready for Release.
func (b *CrossBarrier) Full() bool {
	for _, g := range b.gates {
		if !g.full {
			return false
		}
	}
	return true
}

// Arrivals counts processes currently parked at any gate. Zero after a round
// with no full rendezvous means the shards drained and the run is complete;
// non-zero without Full means the group wedged (a structural mismatch in
// barrier cadence across shards).
func (b *CrossBarrier) Arrivals() int {
	n := 0
	for _, g := range b.gates {
		n += len(g.ws)
	}
	return n
}

// State renders each gate's occupancy, for wedge diagnostics.
func (b *CrossBarrier) State() string {
	parts := make([]string, len(b.gates))
	for i, g := range b.gates {
		parts[i] = fmt.Sprintf("shard%d %d/%d@%v", i, len(g.ws), g.parties, g.env.Now())
	}
	return strings.Join(parts, ", ")
}

// Release aligns the shards on the rendezvous time T = max over shards of
// the gate-fill instant, then schedules every gate's waiters to wake at T in
// arrival order — exactly where a single-environment Barrier would wake
// them: any events a shard still holds before T fire first, and same-instant
// events queued before the release keep their earlier sequence numbers. The
// gates reset for the next cycle. Call only when Full, with every shard
// stopped.
func (b *CrossBarrier) Release() {
	var t time.Duration
	for _, g := range b.gates {
		if g.arrival > t {
			t = g.arrival
		}
	}
	for _, g := range b.gates {
		ws := g.ws
		g.ws = nil
		g.full = false
		g.arrival = 0
		env := g.env
		env.At(t, func() { ws.wakeAll(env) })
	}
	b.Cycles++
}
