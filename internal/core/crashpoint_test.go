package core

import (
	"bytes"
	"testing"
	"time"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// twoCheckpoints runs a lifetime that commits version 1 of three chunks,
// rewrites all three and runs a second ChkptAll. A kill > 0 kills the
// process at that virtual time. It returns each chunk's two staged payloads
// and the span of the second checkpoint's commit phase; end is 0 when the
// kill landed first.
func twoCheckpoints(r *rig, names []string, kill time.Duration) (v1, v2 [][]byte, commitStart, end time.Duration) {
	staged := func(p *sim.Proc, s *Store, cs []*Chunk) [][]byte {
		out := make([][]byte, len(cs))
		for i, c := range cs {
			data, _ := s.StagedData(p, c.ID)
			out[i] = data.AppendTo(nil)
		}
		return out
	}
	app := r.env.Go("life1", func(p *sim.Proc) {
		s := NewStore(r.k.Attach("rank0"), Options{})
		var cs []*Chunk
		for _, n := range names {
			c, _ := s.NVAlloc(p, n, 4*mem.MB, true)
			c.WriteAll(p)
			cs = append(cs, c)
		}
		s.ChkptAll(p)
		v1 = staged(p, s, cs)
		for _, c := range cs {
			c.WriteAll(p)
		}
		// The last stage ends where the commit phase begins.
		s.OnStage(func(*Chunk) { commitStart = r.env.Now() })
		s.ChkptAll(p)
		end = p.Now()
		v2 = staged(p, s, cs)
	})
	if kill > 0 {
		r.env.Go("killer", func(q *sim.Proc) {
			q.Sleep(kill)
			app.Kill()
		})
	}
	r.env.Run()
	r.k.SoftReset()
	return v1, v2, commitStart, end
}

// TestKillInsideCommitRestoresWholeChunks kills the application at each park
// of ChkptAll's commit phase, where every commit-record flip is one charged
// syscall, then restarts and restores. Each chunk must restore, checksum
// intact, to either its previous or its newly committed version. Nothing
// marks a checkpoint as a whole, so a kill between two flips restores chunks
// from two iterations; the test counts those kill points.
func TestKillInsideCommitRestoresWholeChunks(t *testing.T) {
	names := []string{"electrons", "ions", "phi"}
	v1, v2, commitStart, end := twoCheckpoints(newRig(), names, 0)
	cost := newRig().k.SyscallCost
	if parks := int((end - commitStart) / cost); parks != len(names) || commitStart == 0 {
		t.Fatalf("commit phase [%v,%v) spans %d syscalls, want one per chunk (%d)", commitStart, end, parks, len(names))
	}
	mixed := 0
	for i := range names {
		r := newRig()
		kill := commitStart + time.Duration(i)*cost + cost/2
		if _, _, _, end := twoCheckpoints(r, names, kill); end != 0 {
			t.Fatalf("kill at %v landed after the checkpoint", kill)
		}
		var versions []uint64
		r.env.Go("life2", func(p *sim.Proc) {
			s := NewStore(r.k.Attach("rank0"), Options{})
			for j, n := range names {
				c, err := s.NVAlloc(p, n, 4*mem.MB, true)
				if err != nil {
					t.Errorf("kill %d: restore of %s: %v", i, n, err)
					return
				}
				switch {
				case !c.Restored:
					t.Errorf("kill %d: %s not restored", i, n)
				case c.Version == 1 && bytes.Equal(working(c), v1[j]),
					c.Version == 2 && bytes.Equal(working(c), v2[j]):
					versions = append(versions, c.Version)
				default:
					t.Errorf("kill %d: %s restored v%d with neither committed payload", i, n, c.Version)
				}
			}
		})
		r.env.Run()
		for _, v := range versions {
			if v != versions[0] {
				mixed++
				break
			}
		}
	}
	t.Logf("%d of %d kill points inside the commit phase restore a mix of two iterations", mixed, len(names))
}
