package cluster

import (
	"fmt"
	"slices"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/erasure"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/policy"
	"nvmcp/internal/remote"
	"nvmcp/internal/sim"
	"nvmcp/internal/topo"
)

// RemoteTier is the cluster's view of a running remote checkpoint level.
type RemoteTier interface {
	// BeginEpoch resets per-epoch machinery (helper agents, trigger state)
	// before ranks spawn; called again after every failure recovery.
	BeginEpoch()
	// Register adds a freshly attached rank store on a node, in rank order.
	Register(node int, s *core.Store)
	// BeginInterval marks the start of a remote checkpoint interval on a node.
	BeginInterval(node int)
	// Trigger starts a remote checkpoint for a node's data; the returned
	// completion fires at remote commit. The application does not block on it.
	Trigger(p *sim.Proc, node int) *sim.Completion
	// Fetch recovers one chunk of a hard-failed node (slot is the rank's
	// position within its node). seq is the served copy's staged generation
	// for lineage tracing — 0 when the tier cannot know it (erasure
	// reconstruction). ok is false when the tier cannot serve the chunk.
	Fetch(p *sim.Proc, node, slot int, procName string, id uint64) (data nvmkernel.Payload, size int64, seq uint64, ok bool)
	// Utilization reports the tier's helper busy fractions (Table V).
	Utilization(now time.Duration) []float64
	// DrainMesh is the mesh whose committed copies node holder keeps for
	// the bottom tier to drain, or nil when that node holds nothing
	// drainable.
	DrainMesh(holder int) *remote.Mesh
	// HolderOf reports which fabric node physically holds a node's remote
	// copies, or -1 when the tier has no single holder (erasure spreads
	// data across the group).
	HolderOf(node int) int
	// NodeFailed tells the tier a node just died; hard means its NVM — and
	// any remote copies it held for others — are gone. Helpers shipping
	// toward it back off, retry, and fail over until NodeRecovered.
	NodeFailed(node int, hard bool)
	// NodeRecovered marks the node's replacement hardware live again.
	NodeRecovered(node int)
	// Replan re-homes the tier's placement after a correlated failure so
	// that none of the avoided nodes holds anyone's remote copies, and
	// reports whether the plan changed. The new plan takes effect at the
	// next BeginEpoch (the epoch respawn that follows recovery rebuilds the
	// helper agents from it); per-holder residency tracking means re-homed
	// copies fully re-ship on the next trigger.
	Replan(avoid []int) bool
	// Shutdown stops tier processes so the event queue can drain.
	Shutdown()

	// SupportSets returns, per compute node, the fabric nodes its remote
	// recovery depends on: the buddy for replication, the other group
	// members plus the parity holder for erasure. Nodes at or beyond the
	// topology size (parity holders, the PFS) belong to no failure domain.
	// It describes the *planned* placement (failover may re-home copies
	// mid-run; the survivability analysis is about the design point).
	SupportSets() [][]int
	// PlacementHonored reports whether the anti-affinity goal (every
	// support node outside the primary's zone) was satisfiable.
	PlacementHonored() bool
	// PlacementDesc names the effective placement, e.g. "buddy/spread".
	PlacementDesc() string
}

// parityNodes is how many non-compute fabric nodes the named remote policy
// needs: one parity holder per erasure group, none otherwise. Those nodes
// get NVM but no kernel or ranks, and — being provisioned outside the
// fleet — no failure-domain coordinate.
func parityNodes(remoteName string, cfg *Config) int {
	if remoteName != "erasure" {
		return 0
	}
	return policy.ErasureGroupCount(cfg.Nodes, cfg.RemoteGroup)
}

// newRemoteTier builds c's remote level for the named remote policy over
// the fabric nodes' NVM devices (compute nodes first, parity nodes after);
// "none" builds no tier.
func newRemoteTier(c *Cluster, remoteName string, nvms []*mem.Device) (RemoteTier, error) {
	switch remoteName {
	case "buddy-burst":
		return newBuddyTier(c, remote.AsyncBurst, nvms)
	case "buddy-precopy":
		return newBuddyTier(c, remote.PreCopy, nvms)
	case "erasure":
		return newErasureTier(c, nvms)
	}
	return nil, nil
}

// newBuddyTier builds the paper's remote level: each node's helper ships
// chunks to a buddy node holding a two-version copy (remote.Mesh + per-node
// Agents). The buddy ring is rung over c's own node set (spread placement
// rings over its sub-topology), so a partitioned cluster, which builds one
// tier per node group, keeps every ship intra-group.
func newBuddyTier(c *Cluster, scheme remote.Scheme, nvms []*mem.Device) (RemoteTier, error) {
	if c.Cfg.RemoteGroup != 0 {
		return nil, fmt.Errorf("buddy policies take no redundancy group size (got %d)", c.Cfg.RemoteGroup)
	}
	placement, _ := policy.ParsePlacement(c.Cfg.Placement) // Config.Validate parsed it
	plan, honored := policy.BuddyPlan(c.Cfg.Topo, c.Cfg.Nodes, placement)
	mesh := remote.NewMesh(c.Env, c.Fabric, nvms)
	mesh.SetRecorder(c.recorder(0, "mesh"))
	return &buddyTier{c: c, scheme: scheme, mesh: mesh,
		placement: placement, plan: plan, honored: honored}, nil
}

type buddyTier struct {
	c      *Cluster
	scheme remote.Scheme
	mesh   *remote.Mesh

	placement string
	plan      []int // buddy[n]: who holds node n's remote copies
	honored   bool
	warned    bool
}

func (t *buddyTier) BeginEpoch() {
	if !t.honored && !t.warned {
		t.warned = true
		t.c.recorder(0, "placement").Log(obs.EvEngineWarn,
			"zone anti-affinity not satisfiable for buddy ring; replicas spread at best effort", 0,
			obs.Str("placement", "buddy/"+t.placement), obs.Bool("fallback", true))
	}
	for n := 0; n < t.c.Cfg.Nodes; n++ {
		t.mesh.RemoveAgent(n)
		t.mesh.AddAgent(n, t.plan[n], remote.Config{
			Scheme:  t.scheme,
			RateCap: t.c.Cfg.RemoteRateCap,
			Rec:     t.c.recorder(n, "helper"),
		})
	}
}

// SupportSets: node n's remote recovery depends on its planned buddy.
func (t *buddyTier) SupportSets() [][]int {
	out := make([][]int, t.c.Cfg.Nodes)
	for n := range out {
		out[n] = []int{t.plan[n]}
	}
	return out
}

func (t *buddyTier) PlacementHonored() bool { return t.honored }
func (t *buddyTier) PlacementDesc() string  { return "buddy/" + t.placement }

// Replan re-rings the buddy plan so none of the avoided nodes holds remote
// copies; the next BeginEpoch rebuilds the agents from the new plan and the
// mesh's per-holder residency makes re-homed copies re-ship in full.
func (t *buddyTier) Replan(avoid []int) bool {
	nodes, tp := t.c.Cfg.Nodes, t.c.Cfg.Topo
	plan := policy.BuddyReplan(tp, nodes, t.placement, avoid)
	if plan == nil || slices.Equal(plan, t.plan) {
		return false
	}
	t.plan = plan
	if tp != nil {
		t.honored = true
		for n := 0; n < nodes; n++ {
			if tp.SameDomain(topo.LevelZone, n, t.plan[n]) {
				t.honored = false
			}
		}
	}
	return true
}

func (t *buddyTier) Register(node int, s *core.Store) { t.mesh.Agent(node).Register(s) }
func (t *buddyTier) BeginInterval(node int)           { t.mesh.Agent(node).BeginRemoteInterval() }

func (t *buddyTier) Trigger(p *sim.Proc, node int) *sim.Completion {
	return t.mesh.Agent(node).TriggerRemote(p)
}

func (t *buddyTier) Fetch(p *sim.Proc, node, slot int, procName string, id uint64) (nvmkernel.Payload, int64, uint64, bool) {
	return t.mesh.Fetch(p, node, procName, id)
}

func (t *buddyTier) Utilization(now time.Duration) []float64 {
	var out []float64
	for n := 0; n < t.c.Cfg.Nodes; n++ {
		if a := t.mesh.Agent(n); a != nil {
			out = append(out, a.Meter.Utilization(now))
		}
	}
	return out
}

func (t *buddyTier) DrainMesh(holder int) *remote.Mesh {
	if holder < 0 || holder >= t.c.Cfg.Nodes {
		return nil
	}
	return t.mesh
}

func (t *buddyTier) HolderOf(node int) int {
	return t.mesh.HolderOf(node)
}

func (t *buddyTier) NodeFailed(node int, hard bool) {
	// The node's helper dies with it; other helpers see the liveness flag
	// and back off or fail over. A hard failure also takes the remote
	// copies the node was holding for its own buddy-source.
	t.mesh.RemoveAgent(node)
	t.mesh.SetNodeDown(node, true)
	if hard {
		t.mesh.DropNode(node)
	}
}

func (t *buddyTier) NodeRecovered(node int) { t.mesh.SetNodeDown(node, false) }

func (t *buddyTier) Shutdown() {
	for n := 0; n < t.c.Cfg.Nodes; n++ {
		t.mesh.RemoveAgent(n)
	}
}

// newErasureTier composes the erasure package as a remote tier: XOR parity
// groups over the compute nodes, each group's parity held on its own parity
// node. Group 0 keeps the legacy single group over everything; spread
// placement deals group members across zones so a zone loss costs at most
// one member per group — the single loss XOR parity tolerates.
func newErasureTier(c *Cluster, nvms []*mem.Device) (RemoteTier, error) {
	nodes := c.Cfg.Nodes
	placement, _ := policy.ParsePlacement(c.Cfg.Placement) // Config.Validate parsed it
	plan, honored, err := policy.ErasureGroupsPlan(c.Cfg.Topo, nodes, c.Cfg.RemoteGroup, placement)
	if err != nil {
		return nil, err
	}
	t := &erasureTier{
		c:         c,
		cur:       make(map[int][]*core.Store),
		groupOf:   make([]int, nodes),
		rec:       c.recorder(nodes, "parity"),
		placement: placement,
		honored:   honored,
	}
	for gi, members := range plan {
		parityNode := nodes + gi // the parity nodes follow the compute nodes
		t.groups = append(t.groups, erasure.NewGroup(c.Env, c.Fabric, nvms, members, parityNode))
		for _, m := range members {
			t.groupOf[m] = gi
		}
	}
	t.active = make([]*sim.Completion, len(t.groups))
	t.meters = make([]obs.Meter, len(t.groups))
	return t, nil
}

type erasureTier struct {
	c       *Cluster
	groups  []*erasure.Group
	groupOf []int // compute node -> index into groups
	rec     *obs.Recorder

	placement string
	honored   bool
	warned    bool

	// cur collects the epoch's store registrations; they are flushed into
	// the groups only at the first Trigger, so a post-failure recovery can
	// still reconstruct from the previous epoch's survivor stores.
	cur     map[int][]*core.Store
	flushed bool

	// active is each group's in-flight parity round completion, shared by
	// every member's trigger in that round.
	active []*sim.Completion

	// meters track per-group parity-build busy time (helper utilization).
	meters []obs.Meter
}

func (t *erasureTier) BeginEpoch() {
	if !t.honored && !t.warned {
		t.warned = true
		t.c.recorder(0, "placement").Log(obs.EvEngineWarn,
			"zone anti-affinity not satisfiable for erasure groups; members spread at best effort", 0,
			obs.Str("placement", "erasure/"+t.placement), obs.Bool("fallback", true))
	}
	t.cur = make(map[int][]*core.Store)
	t.flushed = false
	for gi, done := range t.active {
		if done != nil {
			// A round abandoned by a failure must not strand the driver's
			// end-of-run await.
			done.Complete()
			t.active[gi] = nil
		}
	}
}

func (t *erasureTier) Register(node int, s *core.Store) {
	t.cur[node] = append(t.cur[node], s)
}

func (t *erasureTier) BeginInterval(int) {}

func (t *erasureTier) Trigger(p *sim.Proc, node int) *sim.Completion {
	if !t.flushed {
		for m, ss := range t.cur {
			t.groups[t.groupOf[m]].SetStores(m, ss)
		}
		t.flushed = true
	}
	gi := t.groupOf[node]
	if t.active[gi] != nil && !t.active[gi].Completed() {
		// The group's parity round is already draining; this node's trigger
		// joins it (all leaders trigger at the same coordinated checkpoint).
		return t.active[gi]
	}
	env := t.c.Env
	done := sim.NewCompletion(env)
	t.active[gi] = done
	g := t.groups[gi]
	env.Go(fmt.Sprintf("parity%d/commit", gi), func(pp *sim.Proc) {
		t.meters[gi].Start(pp.Now())
		err := g.CommitParity(pp)
		t.meters[gi].Stop(pp.Now())
		if err != nil {
			// A failure mid-round leaves stores unreadable; the round is
			// simply lost, like an abandoned buddy burst.
			t.rec.Log(obs.EvHelperSleep, "parity round abandoned", 0,
				obs.Str("err", err.Error()), obs.Int("group", int64(gi)))
		} else {
			t.rec.Log(obs.EvRemoteCommit, "", 0,
				obs.Int("round", int64(g.Round())), obs.Int("group", int64(gi)))
		}
		done.Complete()
	})
	return done
}

func (t *erasureTier) Fetch(p *sim.Proc, node, slot int, procName string, id uint64) (nvmkernel.Payload, int64, uint64, bool) {
	data, size, err := t.groups[t.groupOf[node]].FetchChunk(p, node, slot, id)
	if err != nil {
		return nvmkernel.Payload{}, 0, 0, false
	}
	t.rec.Add("remote_fetches", 1)
	// Parity reconstruction rebuilds bytes, not metadata: the staged
	// generation is unknown (seq 0), and the lineage checker treats it so.
	return data, size, 0, true
}

func (t *erasureTier) Utilization(now time.Duration) []float64 {
	out := make([]float64, len(t.meters))
	for i := range t.meters {
		out[i] = t.meters[i].Utilization(now)
	}
	return out
}

func (t *erasureTier) DrainMesh(int) *remote.Mesh { return nil }

// HolderOf returns -1: parity fragments are spread over the group, so no
// single fabric node holds a node's remote state.
func (t *erasureTier) HolderOf(int) int { return -1 }

func (t *erasureTier) NodeFailed(int, bool) {}
func (t *erasureTier) NodeRecovered(int)    {}

// Replan returns false: a group's parity lives on its own parity node,
// outside the fleet, so no compute node's loss leaves a holder to re-home.
func (t *erasureTier) Replan([]int) bool { return false }

func (t *erasureTier) Shutdown() {
	for _, done := range t.active {
		if done != nil {
			done.Complete()
		}
	}
}

// SupportSets: reconstructing node n needs every other member of its group
// plus the group's parity holder (which lives outside the failure domains).
func (t *erasureTier) SupportSets() [][]int {
	nodes := t.c.Cfg.Nodes
	out := make([][]int, nodes)
	for n := range out {
		g := t.groups[t.groupOf[n]]
		set := []int{nodes + t.groupOf[n]}
		for _, m := range g.Members() {
			if m != n {
				set = append(set, m)
			}
		}
		out[n] = set
	}
	return out
}

func (t *erasureTier) PlacementHonored() bool { return t.honored }
func (t *erasureTier) PlacementDesc() string  { return "erasure/" + t.placement }
