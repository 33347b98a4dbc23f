package nvmkernel

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nvmcp/internal/sim"
)

// tableModel is the plain-map oracle for one chunk's ChunkTable record: the
// commit record as written, its live and written bits, and the two slots.
type tableModel struct {
	commit        CommitRecord
	live, written bool
	slots         [2]Payload
}

// FuzzChunkTable drives a ChunkTable and a plain map of tableModel through
// the same sequence of SetCommit, ClearCommit, SetSlot, Commit, Slot and IDs
// calls, and holds every read, the set IDs lists and the syscall count to
// the oracle after each call. Each call is 4 bytes: the op, the chunk (one
// of 40 spread-out ids, so a table spans several record blocks), and two
// argument bytes.
func FuzzChunkTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 5, 3, 1, 0, 0, 2, 1, 0, 0, 4, 1, 1, 0, 5, 0, 0, 0})
	f.Add([]byte{1, 7, 0, 0, 3, 7, 1, 9, 0, 7, 1, 8, 1, 7, 0, 0, 2, 7, 0, 0, 5, 0, 0, 0})
	var many []byte
	for i := 0; i < 40; i++ {
		many = append(many, 0, byte(i), byte(i), byte(i*7), 2, byte(i), byte(i), 1)
	}
	f.Add(append(many, 5, 0, 0, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := sim.NewEnv()
		k := newTestKernel(e)
		tab := k.Attach("rank0").Chunks()
		model := map[uint64]*tableModel{}
		get := func(id uint64) *tableModel {
			if model[id] == nil {
				model[id] = &tableModel{}
			}
			return model[id]
		}
		var calls int64
		for i := 0; i+4 <= len(ops) && i < 4*512; i += 4 {
			op, id, a, b := ops[i]%6, uint64(ops[i+1]%40)*0x9E3779B97F4A7C15, ops[i+2], ops[i+3]
			slot := int(a % 2)
			step := fmt.Sprintf("op %d (%d on chunk %#x)", i/4, op, id)
			switch op {
			case 0:
				rec := CommitRecord{
					Slot: slot, Version: uint64(b), Checksum: uint64(a) * 0x100000001b3,
					Size: int64(b) << 20, Seq: uint64(a) + uint64(b), Name: fmt.Sprint("c", b),
				}
				tab.SetCommit(nil, id, rec)
				m := get(id)
				m.commit, m.live, m.written = rec, true, true
				calls++
			case 1:
				tab.ClearCommit(nil, id)
				m := get(id)
				m.commit, m.live, m.written = CommitRecord{}, false, true
				calls++
			case 2:
				var data Payload
				switch b % 3 {
				case 1:
					data = Recipe(id, uint64(a), int(b))
				case 2:
					data = Bytes([]byte{a, b})
				}
				tab.SetSlot(nil, id, slot, data)
				get(id).slots[slot] = data
				calls++
			case 3:
				got, ok := tab.Commit(nil, id)
				var want tableModel
				if m := model[id]; m != nil {
					want = *m
				}
				if got != want.commit || ok != want.live {
					t.Fatalf("%s: Commit = %+v, %v; want %+v, %v", step, got, ok, want.commit, want.live)
				}
				calls++
			case 4:
				got := tab.Slot(nil, id, slot)
				var want Payload
				if m := model[id]; m != nil {
					want = m.slots[slot]
				}
				if got.Valid() != want.Valid() || got.Len() != want.Len() ||
					!bytes.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
					t.Fatalf("%s: Slot %d = %d bytes (valid %v), want %d (valid %v)",
						step, slot, got.Len(), got.Valid(), want.Len(), want.Valid())
				}
				calls++
			case 5:
				got := tab.IDs()
				var want []uint64
				for id, m := range model {
					if m.written {
						want = append(want, id)
					}
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: IDs = %x, want %x", step, got, want)
				}
			}
			if k.Syscalls != calls {
				t.Fatalf("%s: %d syscalls, want %d", step, k.Syscalls, calls)
			}
		}
	})
}
