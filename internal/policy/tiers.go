package policy

import (
	"fmt"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/erasure"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/remote"
	"nvmcp/internal/sim"
	"nvmcp/internal/topo"
)

// newBuddyTier builds the paper's remote level: each node's helper ships
// chunks to a buddy node holding a two-version copy (remote.Mesh + per-node
// Agents). The buddy ring is rung over whatever node set the tier is built
// with (spread placement rings over the group's own sub-topology), so a
// partitioned cluster that builds one tier per node group keeps every ship
// intra-group.
func newBuddyTier(scheme remote.Scheme) func(RemoteRuntime, RemoteOptions) (RemoteTier, error) {
	return func(rt RemoteRuntime, o RemoteOptions) (RemoteTier, error) {
		if o.Group != 0 {
			return nil, fmt.Errorf("buddy policies take no redundancy group size (got %d)", o.Group)
		}
		placement, err := ParsePlacement(o.Placement)
		if err != nil {
			return nil, err
		}
		plan, honored := BuddyPlan(rt.Topo, rt.ComputeNodes, placement)
		mesh := remote.NewMesh(rt.Env, rt.Fabric, rt.NVMs)
		mesh.SetRecorder(rt.Recorder(0, "mesh"))
		return &buddyTier{rt: rt, o: o, scheme: scheme, mesh: mesh,
			placement: placement, plan: plan, honored: honored}, nil
	}
}

type buddyTier struct {
	rt     RemoteRuntime
	o      RemoteOptions
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
		t.rt.Recorder(0, "placement").Log(obs.EvEngineWarn,
			"zone anti-affinity not satisfiable for buddy ring; replicas spread at best effort", 0,
			obs.Str("placement", "buddy/"+t.placement), obs.Bool("fallback", true))
	}
	for n := 0; n < t.rt.ComputeNodes; n++ {
		t.mesh.RemoveAgent(n)
		t.mesh.AddAgent(n, t.plan[n], remote.Config{
			Scheme:  t.scheme,
			RateCap: t.o.RateCap,
			Delay:   t.o.Delay,
			Rec:     t.rt.Recorder(n, "helper"),
		})
	}
}

// SupportSets: node n's remote recovery depends on its planned buddy.
func (t *buddyTier) SupportSets() [][]int {
	out := make([][]int, t.rt.ComputeNodes)
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
	plan := BuddyReplan(t.rt.Topo, t.rt.ComputeNodes, t.placement, avoid)
	if plan == nil {
		return false
	}
	changed := false
	for n := range plan {
		if plan[n] != t.plan[n] {
			changed = true
			break
		}
	}
	if !changed {
		return false
	}
	t.plan = plan
	if t.rt.Topo != nil {
		t.honored = true
		for n := 0; n < t.rt.ComputeNodes; n++ {
			if t.rt.Topo.SameDomain(topo.LevelZone, n, t.plan[n]) {
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
	for n := 0; n < t.rt.ComputeNodes; n++ {
		if a := t.mesh.Agent(n); a != nil {
			out = append(out, a.Meter.Utilization(now))
		}
	}
	return out
}

func (t *buddyTier) DrainMesh(holder int) *remote.Mesh {
	if holder < 0 || holder >= t.rt.ComputeNodes {
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
	for n := 0; n < t.rt.ComputeNodes; n++ {
		t.mesh.RemoveAgent(n)
	}
}

// erasureExtraNodes requests one parity-holder fabric node per group.
func erasureExtraNodes(computeNodes int, o RemoteOptions) int {
	return ErasureGroupCount(computeNodes, o.Group)
}

// newErasureTier composes the erasure package as a remote tier: XOR parity
// groups over the compute nodes, each group's parity held on its own extra
// fabric node. Group 0 keeps the legacy single group over everything;
// spread placement deals group members across zones so a zone loss costs
// at most one member per group — the single loss XOR parity tolerates.
func newErasureTier(rt RemoteRuntime, o RemoteOptions) (RemoteTier, error) {
	placement, err := ParsePlacement(o.Placement)
	if err != nil {
		return nil, err
	}
	plan, honored, err := ErasureGroupsPlan(rt.Topo, rt.ComputeNodes, o.Group, placement)
	if err != nil {
		return nil, err
	}
	t := &erasureTier{
		rt:        rt,
		cur:       make(map[int][]*core.Store),
		groupOf:   make([]int, rt.ComputeNodes),
		rec:       rt.Recorder(rt.ComputeNodes, "parity"),
		placement: placement,
		honored:   honored,
	}
	for gi, members := range plan {
		parityNode := rt.ComputeNodes + gi // the tier-requested extra fabric nodes
		t.groups = append(t.groups, erasure.NewGroup(rt.Env, rt.Fabric, rt.NVMs, members, parityNode))
		for _, m := range members {
			t.groupOf[m] = gi
		}
	}
	t.active = make([]*sim.Completion, len(t.groups))
	t.meters = make([]obs.Meter, len(t.groups))
	return t, nil
}

type erasureTier struct {
	rt      RemoteRuntime
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
		t.rt.Recorder(0, "placement").Log(obs.EvEngineWarn,
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
	done := sim.NewCompletion(t.rt.Env)
	t.active[gi] = done
	g := t.groups[gi]
	t.rt.Env.Go(fmt.Sprintf("parity%d/commit", gi), func(pp *sim.Proc) {
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
	out := make([][]int, t.rt.ComputeNodes)
	for n := range out {
		g := t.groups[t.groupOf[n]]
		set := []int{t.rt.ComputeNodes + t.groupOf[n]}
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
