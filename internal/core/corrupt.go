package core

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"nvmcp/internal/nvmkernel"
)

// CorruptVictim identifies one committed chunk payload damaged by
// CorruptCommitted: which process held it, the chunk's variable name (falling
// back to the numeric metadata id for records that predate names), and the
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
// metadata keys, so placement is reproducible under a fixed seed. Returns
// the damaged chunks sorted by Key.
func CorruptCommitted(k *nvmkernel.Kernel, rng *rand.Rand, max int, torn bool) []CorruptVictim {
	if max <= 0 {
		max = 1
	}
	type victim struct {
		proc string
		id   string
		rec  commitRecord
		data []byte
	}
	var victims []victim
	procs := k.ProcessNames()
	sort.Strings(procs)
	for _, proc := range procs {
		for _, key := range k.MetaKeys(proc) {
			id, ok := strings.CutPrefix(key, metaKeyPrefix)
			if !ok {
				continue
			}
			chunkID, err := strconv.ParseUint(id, 10, 64)
			if err != nil {
				continue
			}
			v, ok := k.QueryMeta(nil, proc, key)
			if !ok || v == nil {
				continue
			}
			rec, ok := v.(commitRecord)
			if !ok {
				continue
			}
			dv, ok := k.QueryMeta(nil, proc, dataKeyOf(chunkID, rec.Slot))
			if !ok || dv == nil {
				continue
			}
			data, ok := dv.([]byte)
			if !ok || len(data) == 0 {
				continue
			}
			victims = append(victims, victim{proc: proc, id: id, rec: rec, data: data})
		}
	}
	// Sample without replacement: shuffle the candidate order, take max.
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	if len(victims) > max {
		victims = victims[:max]
	}
	out := make([]CorruptVictim, 0, len(victims))
	for _, v := range victims {
		if torn {
			for i := len(v.data) / 2; i < len(v.data); i++ {
				v.data[i] = 0
			}
		} else {
			v.data[rng.Intn(len(v.data))] ^= 1 << uint(rng.Intn(8))
		}
		// The mutation is in place, so a coincidental no-op (the pattern
		// already held those bytes) would silently inject nothing; force a
		// mismatch in that case.
		if checksum(v.data, v.rec.Size) == v.rec.Checksum {
			v.data[0] ^= 0xFF
		}
		name := v.rec.Name
		if name == "" {
			name = v.id
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
