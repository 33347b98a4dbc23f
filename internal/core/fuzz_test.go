package core

import (
	"testing"

	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// FuzzChunkWriteCheckpointRestore decodes the input as write-ranges and
// checkpoint points against one chunk, then restarts the process and checks
// that the restored contents match the last committed payload exactly. Each
// 4-byte record is (op, offLo, offHi, len16): op's low two bits select
// write / full-rewrite / checkpoint.
func FuzzChunkWriteCheckpointRestore(f *testing.F) {
	f.Add([]byte{0, 10, 0, 50, 2, 0, 0, 0, 0, 99, 1, 7})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 0, 4, 5, 6, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := sim.NewEnv()
		k := nvmkernel.New(e, mem.NewDRAM(e, 8*mem.GB), mem.NewPCM(e, 8*mem.GB))
		const size = 256 * 1024 // fully real payload
		var committed []byte
		e.Go("life1", func(p *sim.Proc) {
			s := NewStore(k.Attach("rank0"), Options{PayloadCap: size})
			c, err := s.NVAlloc(p, "x", size, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+3 < len(data) && i < 4*128; i += 4 {
				switch data[i] & 3 {
				case 0, 3:
					off := (int64(data[i+1]) | int64(data[i+2])<<8) * 7 % size
					n := int64(data[i+3])*137%(size-off) + 1
					if err := c.Write(p, off, n); err != nil {
						t.Fatal(err)
					}
				case 1:
					if err := c.WriteAll(p); err != nil {
						t.Fatal(err)
					}
				case 2:
					s.ChkptAll(p)
					if d, ok := s.StagedData(p, c.ID); ok {
						committed = d.AppendTo(committed[:0])
					}
				}
			}
		})
		e.Run()
		if committed == nil {
			return // nothing was ever checkpointed
		}
		k.SoftReset()
		e.Go("life2", func(p *sim.Proc) {
			s := NewStore(k.Attach("rank0"), Options{PayloadCap: size})
			c, err := s.NVAlloc(p, "x", size, true)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Restored {
				t.Fatal("committed chunk did not restore")
			}
			got := working(c)
			for i := range committed {
				if got[i] != committed[i] {
					t.Fatalf("restored byte %d differs", i)
				}
			}
		})
		e.Run()
	})
}
