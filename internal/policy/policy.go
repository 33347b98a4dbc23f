// Package policy names the paper's checkpoint design space: the local
// pre-copy schemes (none, cpc, dcpc, dcpcp), the remote checkpoint tiers
// (buddy replication, erasure parity) and the bottom storage tiers (PFS
// drain). Each kind is one static table of data-only rows; the cluster
// validates names against them and builds the pre-copy engine, the remote
// tier and the PFS from the resolved row. The package also keeps what only
// the policy decides: where replicas and parity groups are placed over a
// fleet topology, and the gate that staggers remote drains.
package policy

import (
	"fmt"
	"strings"

	"nvmcp/internal/precopy"
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
		{Kind: KindRemote, Name: "buddy-burst", MinShardNodes: 2,
			Description: "buddy replication, shipping everything at the remote checkpoint point"},
		{Kind: KindRemote, Name: "buddy-precopy", MinShardNodes: 2,
			Description: "buddy replication with incremental pre-copy shipping ahead of the trigger"},
		{Kind: KindRemote, Name: "erasure",
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
