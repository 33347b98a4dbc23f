// Package policy names the paper's checkpoint design space: the local
// pre-copy schemes (none, cpc, dcpc, dcpcp), the remote checkpoint tiers
// (buddy replication, erasure parity) and the bottom storage tiers (PFS
// drain). Each kind is one static table of rows; the scenario layer
// validates names against it and the cluster reads a row's data to build
// the pre-copy engine, the remote tier and the PFS.
package policy

import (
	"fmt"
	"strings"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/precopy"
	"nvmcp/internal/remote"
	"nvmcp/internal/sim"
	"nvmcp/internal/topo"
)

// Kind separates the three policy namespaces.
type Kind int

const (
	// KindLocal names local pre-copy policies (none, cpc, dcpc, dcpcp).
	KindLocal Kind = iota
	// KindRemote names remote checkpoint tiers (none, buddy-precopy,
	// buddy-burst, erasure).
	KindRemote
	// KindBottom names bottom storage tiers (none, pfs-drain).
	KindBottom
)

func (k Kind) String() string {
	switch k {
	case KindLocal:
		return "local"
	case KindRemote:
		return "remote"
	default:
		return "bottom"
	}
}

// RemoteRuntime is the machine surface a remote tier builds on.
type RemoteRuntime struct {
	Env    *sim.Env
	Fabric *interconnect.Fabric
	// NVMs holds every fabric node's NVM device, compute nodes first and
	// any tier-requested extra nodes (ExtraNodes) after them.
	NVMs []*mem.Device
	// ComputeNodes is how many nodes run application ranks; extra nodes
	// (e.g. an erasure parity holder) index from ComputeNodes upward.
	ComputeNodes int
	// Topo carries the fleet's failure-domain coordinates, or nil when the
	// scenario assigned none. Tiers use it for anti-affinity placement.
	Topo *topo.Topology
	// Recorder mints per-(node, actor) observability recorders. node is
	// the tier's own numbering; the recorder carries the node as the bus
	// numbers it, which on one shard of a partitioned cluster is offset.
	Recorder func(node int, actor string) *obs.Recorder
}

// RemoteOptions carries the remote tier's tuning knobs.
type RemoteOptions struct {
	// RateCap throttles incremental shipping in bytes/sec (0 = uncapped).
	RateCap float64
	// Delay holds incremental shipping until this long into each remote
	// interval.
	Delay time.Duration
	// Group hints the redundancy group size (erasure parity group; 0 = all
	// compute nodes).
	Group int
	// Placement selects replica placement over the fleet topology:
	// PlacementSpread (the default) enforces zone anti-affinity,
	// PlacementNaive keeps the paper's consecutive-id layout.
	Placement string
}

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

// Entry is one named policy: a row of its kind's table.
type Entry struct {
	Kind        Kind
	Name        string
	Description string

	// Scheme is a local row's pre-copy scheme.
	Scheme precopy.Scheme
	// MinShardNodes is the smallest node group a remote row's tier still
	// functions in when a partitioned cluster builds one tier per group (a
	// buddy ring needs two nodes; a disabled tier runs with one). 0 means
	// the tier's data flows span node groups, which pins the serial engine.
	MinShardNodes int

	extraNodes func(computeNodes int, o RemoteOptions) int
	newTier    func(rt RemoteRuntime, o RemoteOptions) (RemoteTier, error)
}

// ExtraNodes is how many non-compute fabric nodes a remote row's tier needs
// (one parity holder per erasure group); it may depend on the options.
func (e *Entry) ExtraNodes(computeNodes int, o RemoteOptions) int {
	if e.extraNodes == nil {
		return 0
	}
	return e.extraNodes(computeNodes, o)
}

// NewTier builds a remote row's tier; a nil tier (with nil error) disables
// the remote level entirely (the "none" row).
func (e *Entry) NewTier(rt RemoteRuntime, o RemoteOptions) (RemoteTier, error) {
	if e.newTier == nil {
		return nil, nil
	}
	return e.newTier(rt, o)
}

// tables holds every kind's rows in listing order.
var tables = [...][]Entry{
	KindLocal: {
		{Kind: KindLocal, Name: "none", Scheme: precopy.NoPreCopy,
			Description: "no background pre-copy; the blocking checkpoint copies everything"},
		{Kind: KindLocal, Name: "cpc", Scheme: precopy.CPC,
			Description: "continuous pre-copy: chunks copied as soon as they are modified"},
		{Kind: KindLocal, Name: "dcpc", Scheme: precopy.DCPC,
			Description: "delayed pre-copy: copies start at the adaptive threshold T_p"},
		{Kind: KindLocal, Name: "dcpcp", Scheme: precopy.DCPCP,
			Description: "delayed pre-copy plus per-chunk modification prediction (the paper's best)"},
	},
	KindRemote: {
		{Kind: KindRemote, Name: "none", MinShardNodes: 1,
			Description: "no remote checkpoint level"},
		{Kind: KindRemote, Name: "buddy-burst", MinShardNodes: 2, newTier: newBuddyTier(remote.AsyncBurst),
			Description: "buddy replication, shipping everything at the remote checkpoint point"},
		{Kind: KindRemote, Name: "buddy-precopy", MinShardNodes: 2, newTier: newBuddyTier(remote.PreCopy),
			Description: "buddy replication with incremental pre-copy shipping ahead of the trigger"},
		{Kind: KindRemote, Name: "erasure", extraNodes: erasureExtraNodes, newTier: newErasureTier,
			Description: "XOR parity group on a dedicated parity node instead of full buddy copies"},
	},
	KindBottom: {
		{Kind: KindBottom, Name: "none",
			Description: "no bottom storage level"},
		{Kind: KindBottom, Name: "pfs-drain",
			Description: "drain committed remote copies to a parallel file system"},
	},
}

// Parse resolves a policy name within a kind. The empty string means "none".
// Unknown names produce an error listing every valid name.
func Parse(kind Kind, name string) (*Entry, error) {
	if name == "" {
		name = "none"
	}
	for i := range tables[kind] {
		if e := &tables[kind][i]; e.Name == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("unknown %s policy %q (valid: %s)",
		kind, name, strings.Join(Names(kind), ", "))
}

// Names lists a kind's policy names in table order.
func Names(kind Kind) []string {
	out := make([]string, 0, len(tables[kind]))
	for _, e := range tables[kind] {
		out = append(out, e.Name)
	}
	return out
}
