package core

import (
	"math/rand"
	"sort"
	"strconv"

	"nvmcp/internal/nvmkernel"
)

// CorruptVictim identifies one committed chunk payload damaged by
// CorruptCommitted: which process held it, the chunk's variable name (falling
// back to the decimal chunk id for records that predate names), and the
// committed generation's sequence and version — enough for lineage tracing
// to mark exactly which copy went bad.
type CorruptVictim struct {
	Proc    string
	Chunk   string
	Size    int64
	Seq     uint64
	Version uint64
}

// Key returns the victim's cluster-wide lineage key, "proc/chunk".
func (v CorruptVictim) Key() string { return v.Proc + "/" + v.Chunk }

// CorruptCommitted damages up to max committed chunk payloads across every
// process with persistent state on k, leaving commit records untouched so
// the damage surfaces as ErrChecksum at the next restore. With torn=false a
// single byte of each victim gets a bit-flip (PCM media error); with
// torn=true the payload's tail half is zeroed (a write torn by power loss).
// Victims are chosen with rng over a sorted enumeration of processes and
// chunk ids, so placement is reproducible under a fixed seed. Damage is
// copy-on-damage, never in place: each victim's payload is materialized into
// fresh bytes, damaged and installed in the victim's version slot, so the
// buddy replica and the PFS object sharing the original payload stay
// intact. Returns the damaged chunks sorted by Key.
func CorruptCommitted(k *nvmkernel.Kernel, rng *rand.Rand, max int, torn bool) []CorruptVictim {
	if max <= 0 {
		max = 1
	}
	type victim struct {
		proc string
		id   uint64
		rec  nvmkernel.CommitRecord
		data nvmkernel.Payload
	}
	var victims []victim
	procs := k.ProcessNames()
	sort.Strings(procs)
	for _, proc := range procs {
		t := k.Chunks(proc)
		// Chunk ids in decimal-string order, the order the seeded shuffle
		// below is pinned to: numeric order would damage different chunks
		// under the same seed.
		ids := t.IDs()
		sort.Slice(ids, func(i, j int) bool {
			return strconv.FormatUint(ids[i], 10) < strconv.FormatUint(ids[j], 10)
		})
		for _, id := range ids {
			rec, ok := t.Commit(nil, id)
			if !ok {
				continue
			}
			if data := t.Slot(nil, id, rec.Slot); data.Len() > 0 {
				victims = append(victims, victim{proc: proc, id: id, rec: rec, data: data})
			}
		}
	}
	// Sample without replacement: shuffle the candidate order, take max.
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	if len(victims) > max {
		victims = victims[:max]
	}
	out := make([]CorruptVictim, 0, len(victims))
	for _, v := range victims {
		// Copy on damage: the stored payload is shared with the buddy
		// replica and the PFS, which must keep the good bytes, so the
		// damage goes into fresh bytes installed in the same slot.
		data := v.data.AppendTo(nil)
		if torn {
			for i := len(data) / 2; i < len(data); i++ {
				data[i] = 0
			}
		} else {
			data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
		}
		// A coincidental no-op (the pattern already held those bytes) would
		// silently inject nothing; force a mismatch in that case.
		if nvmkernel.Bytes(data).Checksum(v.rec.Size) == v.rec.Checksum {
			data[0] ^= 0xFF
		}
		k.Chunks(v.proc).SetSlot(nil, v.id, v.rec.Slot, nvmkernel.Bytes(data))
		name := v.rec.Name
		if name == "" {
			name = strconv.FormatUint(v.id, 10)
		}
		out = append(out, CorruptVictim{
			Proc:    v.proc,
			Chunk:   name,
			Size:    v.rec.Size,
			Seq:     v.rec.Seq,
			Version: v.rec.Version,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
