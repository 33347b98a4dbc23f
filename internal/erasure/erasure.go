// Package erasure implements XOR-parity remote checkpointing — the
// memory-saving alternative to buddy replication that the paper's related
// work cites (Plank et al.'s diskless checkpointing with erasure coding).
// Instead of each node holding a full copy of its buddy's checkpoint (2x
// remote memory), a group of G member nodes stores a single XOR parity of
// their (rank-wise aligned) checkpoint chunks on a parity node: remote NVM
// falls from G·D to D per group, at the price of a much more expensive
// recovery — reconstructing a lost node's data needs the parity plus all
// G−1 survivors' contributions.
//
// The XOR is computed over the chunks' real payload bytes, so reconstruction
// is verified on content, exactly like the rest of the repository.
package erasure

import (
	"errors"
	"fmt"
	"slices"

	"nvmcp/internal/core"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// Errors.
var (
	ErrShape    = errors.New("erasure: member stores are not rank-aligned")
	ErrNoParity = errors.New("erasure: no committed parity round")
	ErrStale    = errors.New("erasure: survivor data no longer matches the parity round")
)

// chunkKey addresses a chunk within the group: the rank slot (position of
// the rank within its node) plus the chunk id, which is identical across
// ranks running the same application.
type chunkKey struct {
	slot int
	id   uint64
}

// parityChunk is the parity node's state for one (slot, chunk).
type parityChunk struct {
	size   int64
	data   []byte   // XOR of all members' payloads at the committed round
	seqs   []uint64 // per-member staged sequence captured at parity time
	reserv bool
}

// Group is one parity group: G member nodes plus a parity holder.
type Group struct {
	env        *sim.Env
	fabric     *interconnect.Fabric
	nvm        []*mem.Device // per-node NVM devices (cluster-wide indexing)
	members    []int
	parityNode int

	stores map[int][]*core.Store // member node -> rank-ordered stores
	parity map[chunkKey]*parityChunk
	round  uint64
	// scratch holds one member payload's materialized bytes while xorInto
	// folds it into an accumulator.
	scratch []byte

	// ShipBytes counts bytes shipped to the parity node; Reconstructions
	// counts rebuilt members.
	ShipBytes, Reconstructions int64
}

// NewGroup builds a parity group. members and parityNode index into the
// fabric's nodes; nvm[i] is node i's NVM device.
func NewGroup(env *sim.Env, fabric *interconnect.Fabric, nvm []*mem.Device, members []int, parityNode int) *Group {
	if len(members) < 2 {
		panic("erasure: a parity group needs at least two members")
	}
	for _, m := range members {
		if m == parityNode {
			panic("erasure: parity node must not be a member")
		}
	}
	return &Group{
		env:        env,
		fabric:     fabric,
		nvm:        nvm,
		members:    append([]int(nil), members...),
		parityNode: parityNode,
		stores:     make(map[int][]*core.Store),
		parity:     make(map[chunkKey]*parityChunk),
	}
}

// Register adds a member node's rank store. Stores must be registered in the
// same rank order on every member, so slot i on node a pairs with slot i on
// node b.
func (g *Group) Register(member int, s *core.Store) {
	g.stores[member] = append(g.stores[member], s)
}

// SetStores replaces a member node's rank-ordered stores wholesale — the
// re-registration path after a failure epoch, where freshly attached stores
// take over from the previous epoch's handles.
func (g *Group) SetStores(member int, stores []*core.Store) {
	g.stores[member] = append([]*core.Store(nil), stores...)
}

// Members returns the member node ids.
func (g *Group) Members() []int { return append([]int(nil), g.members...) }

// Round returns the committed parity round (0 before the first commit).
func (g *Group) Round() uint64 { return g.round }

// RemoteFootprint returns the parity node's NVM bytes held for this group —
// D per rank slot, against buddy replication's G·D (x2 for two versions).
func (g *Group) RemoteFootprint() int64 {
	var total int64
	for _, pc := range g.parity {
		if pc.reserv {
			total += pc.size
		}
	}
	return total
}

// CommitParity runs one coordinated parity round: every member ships each
// rank slot's staged chunks to the parity node, which folds them into the
// XOR accumulators. The round is atomic from the caller's perspective
// (invoke it at a coordinated checkpoint, after every member committed the
// same local round). Blocks p until the parity is durable.
func (g *Group) CommitParity(p *sim.Proc) error {
	shape, err := g.shape(p)
	if err != nil {
		return err
	}
	// Fresh accumulators for this round.
	next := make(map[chunkKey]*parityChunk, len(shape))
	for key, size := range shape {
		old := g.parity[key]
		pc := &parityChunk{size: size, seqs: make([]uint64, len(g.members))}
		if old != nil && old.reserv && old.size == size {
			pc.reserv = true // capacity already held
		} else {
			if old != nil && old.reserv {
				g.nvm[g.parityNode].Release(old.size)
			}
			if err := g.nvm[g.parityNode].Reserve(size); err != nil {
				return fmt.Errorf("erasure: parity node %d: %w", g.parityNode, err)
			}
			pc.reserv = true
		}
		next[key] = pc
	}

	for mi, member := range g.members {
		for slot, s := range g.stores[member] {
			for _, st := range s.Snapshot(p) {
				key := chunkKey{slot, st.ID}
				pc := next[key]
				data, ok := s.StagedData(p, st.ID)
				if !ok {
					return fmt.Errorf("erasure: member %d slot %d chunk %d has no staged data", member, slot, st.ID)
				}
				// Local NVM read, wire transfer, parity-node NVM write.
				s.Kernel().NVM.ReadBytes(p, st.Size)
				g.fabric.RDMAWrite(p, member, g.parityNode, st.Size, 0)
				g.nvm[g.parityNode].WriteBytes(p, st.Size)
				pc.data = g.xorInto(pc.data, data)
				pc.seqs[mi] = st.CleanSeq
				g.ShipBytes += st.Size
			}
		}
	}
	g.parity = next
	g.round++
	return nil
}

// Reconstruct rebuilds the checkpoint payloads of a failed member from the
// parity plus every survivor's contribution, delivering them onto the
// (re-attached) stores of the failed node via AdoptRemote. Every survivor's
// chunk must still hold the exact data of the committed parity round.
func (g *Group) Reconstruct(p *sim.Proc, failed int, replacement []*core.Store) error {
	if err := g.canRebuild(failed); err != nil {
		return err
	}
	if len(replacement) != len(g.stores[failed]) {
		return fmt.Errorf("%w: replacement has %d stores, member had %d",
			ErrShape, len(replacement), len(g.stores[failed]))
	}
	for slot, s := range replacement {
		for _, c := range s.Chunks() {
			data, _, err := g.rebuild(p, failed, slot, c.ID)
			if err != nil {
				return err
			}
			if err := s.AdoptRemote(p, c, nvmkernel.Bytes(data)); err != nil {
				return err
			}
		}
	}
	// The replacement stores take the failed member's place.
	g.stores[failed] = replacement
	g.Reconstructions++
	return nil
}

// FetchChunk reconstructs a single chunk of a failed member from the parity
// plus every survivor's contribution, returning the payload without adopting
// it into a store (the caller delivers it). The transfer lands in the failed
// node's NVM. Survivors must still hold the committed round's data, else
// ErrStale.
func (g *Group) FetchChunk(p *sim.Proc, failed, slot int, id uint64) (nvmkernel.Payload, int64, error) {
	if err := g.canRebuild(failed); err != nil {
		return nvmkernel.Payload{}, 0, err
	}
	data, size, err := g.rebuild(p, failed, slot, id)
	if err != nil {
		return nvmkernel.Payload{}, 0, err
	}
	g.nvm[failed].WriteBytes(p, size)
	g.Reconstructions++
	return nvmkernel.Bytes(data), size, nil
}

// canRebuild reports why the group cannot rebuild a failed member's data:
// no committed parity round, or the node is not a member.
func (g *Group) canRebuild(failed int) error {
	if g.round == 0 {
		return ErrNoParity
	}
	if !slices.Contains(g.members, failed) {
		return fmt.Errorf("erasure: node %d is not a group member", failed)
	}
	return nil
}

// rebuild XORs one (slot, chunk)'s committed parity with every survivor's
// staged contribution, charging each NVM read and each transfer toward the
// failed node, and returns the failed member's bytes and the chunk size.
func (g *Group) rebuild(p *sim.Proc, failed, slot int, id uint64) ([]byte, int64, error) {
	pc, ok := g.parity[chunkKey{slot, id}]
	if !ok {
		return nil, 0, fmt.Errorf("erasure: no parity for slot %d chunk %d", slot, id)
	}
	// Start from the parity, shipped from the parity node.
	g.nvm[g.parityNode].ReadBytes(p, pc.size)
	g.fabric.RDMARead(p, g.parityNode, failed, pc.size)
	acc := append([]byte(nil), pc.data...)

	// Fold in every survivor's committed contribution.
	for mi, member := range g.members {
		if member == failed {
			continue
		}
		stores := g.stores[member]
		if slot >= len(stores) {
			return nil, 0, fmt.Errorf("%w: survivor %d has no rank slot %d", ErrShape, member, slot)
		}
		ss := stores[slot]
		c := ss.Chunk(id)
		if c == nil {
			return nil, 0, fmt.Errorf("erasure: survivor %d missing chunk %d", member, id)
		}
		if seq := c.StagedSeq(); seq != pc.seqs[mi] {
			return nil, 0, fmt.Errorf("%w: survivor %d chunk %s at seq %d, parity at %d",
				ErrStale, member, c.Name, seq, pc.seqs[mi])
		}
		data, ok := ss.StagedData(p, id)
		if !ok {
			return nil, 0, fmt.Errorf("erasure: survivor %d has no data for chunk %s", member, c.Name)
		}
		ss.Kernel().NVM.ReadBytes(p, pc.size)
		g.fabric.RDMARead(p, member, failed, pc.size)
		acc = g.xorInto(acc, data)
	}
	return acc, pc.size, nil
}

// shape validates rank alignment across members and returns the (slot,
// chunk) -> size map.
func (g *Group) shape(p *sim.Proc) (map[chunkKey]int64, error) {
	shape := make(map[chunkKey]int64)
	for i, member := range g.members {
		stores := g.stores[member]
		if i > 0 && len(stores) != len(g.stores[g.members[0]]) {
			return nil, fmt.Errorf("%w: node %d has %d ranks, node %d has %d",
				ErrShape, member, len(stores), g.members[0], len(g.stores[g.members[0]]))
		}
		for slot, s := range stores {
			for _, st := range s.Snapshot(p) {
				key := chunkKey{slot, st.ID}
				if prev, ok := shape[key]; ok {
					if prev != st.Size {
						return nil, fmt.Errorf("%w: chunk %d sizes differ (%d vs %d)",
							ErrShape, st.ID, prev, st.Size)
					}
				} else if i == 0 {
					shape[key] = st.Size
				} else {
					return nil, fmt.Errorf("%w: chunk %d only on node %d", ErrShape, st.ID, member)
				}
			}
		}
	}
	return shape, nil
}

// xorInto returns dst ^= src, growing dst to cover src. src is
// materialized into the group's scratch buffer first.
func (g *Group) xorInto(dst []byte, src nvmkernel.Payload) []byte {
	g.scratch = src.AppendTo(g.scratch[:0])
	if len(g.scratch) > len(dst) {
		grown := make([]byte, len(g.scratch))
		copy(grown, dst)
		dst = grown
	}
	for i, b := range g.scratch {
		dst[i] ^= b
	}
	return dst
}
