package cluster

import (
	"fmt"
	"hash/fnv"
	"time"

	"nvmcp/internal/obs"
	"nvmcp/internal/policy"
	"nvmcp/internal/sim"
)

// The sharded engine (DESIGN.md §12) partitions the node set into contiguous
// groups, builds one fully independent sub-cluster per group — its own
// sim.Env, fabric, kernels, stores, remote-tier instance and Observer — and
// runs the group in conservative lockstep: between coordinated-checkpoint
// rendezvous the shards exchange nothing, so each may run arbitrarily far
// ahead (the lookahead is the whole barrier interval); at the rendezvous no
// shard proceeds before the slowest shard's arrival time. Determinism at a
// fixed shard count is by construction: shards share no mutable state, and
// every cross-shard reduction (the release time, the merged observability
// streams, the folded checksum) is ordered by shard index.

// shardEngine is the coordinator state hung off a partitioned Cluster.
type shardEngine struct {
	subs    []*Cluster
	group   *sim.ShardGroup
	barrier *sim.CrossBarrier
}

// shardOf returns the sub-cluster owning global node n.
func (se *shardEngine) shardOf(n int) *Cluster {
	for _, sub := range se.subs {
		if n < sub.Cfg.nodeOffset+sub.Cfg.Nodes {
			return sub
		}
	}
	return se.subs[len(se.subs)-1]
}

// shardBlocker reports why cfg must run on the serial engine, or "" when the
// topology partitions cleanly. Sharding models loosely-coupled node groups,
// so anything with global coupling pins the run to one engine: failure
// injection (faults broadcast a kill to every rank), a bottom tier (one
// shared file system), a remote policy whose data flows cross groups, an
// external controller, and drain staggering. The bus consumers are not
// among them: lineage, SLO and drift attach once, to the coordinator, and
// fold the merged stream at collect time (obs.MergeShards publishes it
// through their taps); the Chrome trace reads per-rank and per-helper
// intervals only, so each shard's observer carries its own tap
// (Cluster.ChromeTrace).
func shardBlocker(cfg *Config) string {
	if len(cfg.Failures) > 0 || cfg.FaultModel != nil {
		return "failure injection broadcasts across the whole cluster"
	}
	if e, _ := policy.Parse(policy.KindBottom, cfg.Bottom); e != nil && e.Name != "none" {
		return fmt.Sprintf("bottom tier %q drains to one shared store", e.Name)
	}
	if re, _ := policy.Parse(policy.KindRemote, cfg.Remote); re.MinShardNodes == 0 {
		return fmt.Sprintf("remote policy %q spans node groups", re.Name)
	}
	if cfg.Control != nil {
		return "external control hooks couple the whole cluster to one controller"
	}
	if cfg.Stagger.Enabled() {
		return "drain staggering gates every node behind one admission gate"
	}
	return ""
}

// maxShardCount is the topology's shard ceiling: every shard needs enough
// nodes for its remote-tier instance to function (two for a buddy ring).
func maxShardCount(cfg *Config) int {
	re, _ := policy.Parse(policy.KindRemote, cfg.Remote)
	return cfg.Nodes / max(re.MinShardNodes, 1)
}

// newSharded builds the coordinator cluster: one sub-cluster per contiguous
// node group, a CrossBarrier with one gate per shard injected as each sub's
// checkpoint rendezvous, and a merge environment whose Observer receives the
// deterministic flush-time merge of every shard's streams and carries the
// run's bus consumers. cfg.Shards holds the resolved count and cfg passed
// Validate.
func newSharded(cfg Config) (*Cluster, error) {
	n := cfg.Shards
	base, rem := cfg.Nodes/n, cfg.Nodes%n
	bases := cfg.rankBases()
	subs := make([]*Cluster, 0, n)
	envs := make([]*sim.Env, 0, n)
	parties := make([]int, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		span := base
		if i < rem {
			span++
		}
		sub := cfg
		sub.Shards = 1
		sub.Nodes = span
		sub.nodeOffset = off
		sub.rankOffset = bases[off]
		if len(cfg.Shapes) > 0 {
			sub.Shapes = cfg.Shapes[off : off+span]
		}
		if len(cfg.NodeStart) > 0 {
			sub.NodeStart = cfg.NodeStart[off : off+span]
		}
		if cfg.Topo != nil {
			sub.Topo = cfg.Topo.Slice(off, off+span)
		}
		c, err := build(sub)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		subs = append(subs, c)
		envs = append(envs, c.Env)
		parties = append(parties, bases[off+span]-bases[off])
		off += span
	}
	group := sim.NewShardGroup(envs...)
	cb := sim.NewCrossBarrier(group, parties)
	for i, sub := range subs {
		gate := cb.Gate(i)
		sub.newBarrier = func(int) rendezvous { return gate }
	}
	env := sim.NewEnv()
	c := &Cluster{
		Cfg:     cfg,
		Env:     env,
		Obs:     obs.New(env),
		sharded: &shardEngine{subs: subs, group: group, barrier: cb},
	}
	c.attachConsumers()
	return c, nil
}

// executeSharded is the coordinator loop: advance every shard concurrently
// until each pauses at a filled gate or drains idle; when the rendezvous is
// full, release it at the slowest shard's arrival time and go again. A round
// that parks ranks without filling the rendezvous means the shards' barrier
// cadences diverged — a structural bug, reported loudly rather than hung.
func (c *Cluster) executeSharded() (Result, error) {
	se := c.sharded
	for _, sub := range se.subs {
		sub.Env.Go("driver", sub.drive)
	}
	for {
		se.group.RunRound()
		if se.barrier.Full() {
			se.barrier.Release()
			continue
		}
		if n := se.barrier.Arrivals(); n > 0 {
			return Result{}, fmt.Errorf("cluster: sharded run wedged with %d ranks gated (%s)",
				n, se.barrier.State())
		}
		break
	}
	// Align the merge clock with the slowest shard so the merged report's
	// virtual end time covers every shard's events.
	c.Env.RunUntil(se.group.MaxNow())
	return c.collectSharded(), nil
}

// collectSharded folds the shards into one Result and merges their
// observability streams into the coordinator's Observer, whose bus
// consumers fold the merged stream as it lands. Every fold is ordered by
// shard index, so the output at a fixed shard count is byte-stable
// regardless of GOMAXPROCS.
func (c *Cluster) collectSharded() Result {
	se := c.sharded
	shardObs := make([]*obs.Observer, len(se.subs))
	subResults := make([]Result, len(se.subs))
	for i, sub := range se.subs {
		subResults[i] = sub.collect()
		shardObs[i] = sub.Obs
	}
	obs.MergeShards(c.Obs, shardObs)

	cfg := c.Cfg
	ranks := cfg.totalRanks()
	res := Result{Ranks: ranks}
	var ckptTotal time.Duration
	h := fnv.New64a()
	var buf [8]byte
	for i, sr := range subResults {
		sub := se.subs[i]
		if sr.ExecTime > res.ExecTime {
			res.ExecTime = sr.ExecTime
		}
		// The cross-shard barrier aligns every round, so per-shard round
		// counts agree; max() reads the common value without assuming it.
		if sr.LocalCkpts > res.LocalCkpts {
			res.LocalCkpts = sr.LocalCkpts
		}
		if sr.RemoteCkpts > res.RemoteCkpts {
			res.RemoteCkpts = sr.RemoteCkpts
		}
		for _, d := range sub.ckptTime {
			ckptTotal += d
		}
		res.HelperUtil = append(res.HelperUtil, sr.HelperUtil...)
		if sr.BottomDrainTime > res.BottomDrainTime {
			res.BottomDrainTime = sr.BottomDrainTime
		}
		res.BottomObjects += sr.BottomObjects
		res.BottomBytes += sr.BottomBytes
		// Fold the per-shard content checksums in shard order: the global
		// fingerprint of a partitioned run, stable at a fixed shard count.
		for b := 0; b < 8; b++ {
			buf[b] = byte(sub.workSum >> (8 * b))
		}
		h.Write(buf[:])
	}
	res.CkptTimePerRank = ckptTotal / time.Duration(ranks)
	res.WorkloadChecksum = h.Sum64()

	// The run's totals are read from the merged registry, and the
	// cluster-level figures re-derive from it (the per-shard gauge values
	// absorbed by the merge are only the last shard's; overwrite them with
	// the global figures).
	c.deriveFromRegistry(&res)
	reg := c.Obs.Registry()
	reg.Gauge("mttr_seconds", nil).Set(0)
	reg.Gauge("degraded_seconds_total", nil).Set(0)

	c.sealConsumers(&res)
	return res
}
