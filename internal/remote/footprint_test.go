package remote

import (
	"fmt"
	"runtime"
	"testing"

	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// footprintChunks is how many chunks TestPerChunkFootprint builds.
const footprintChunks = 4096

// maxBytesPerChunk bounds the heap a staged, shipped and remote-committed
// chunk retains across every layer: core's Chunk, its DRAM region and page
// set, its NVM heap extents, its kernel chunk-table record, the buddy's
// copy and each layer's index entries. The measured figure is 985 bytes
// (go1.24, linux/amd64; 1,431 before the records were packed); the bound
// leaves 10% on top. DESIGN.md §8 lists the per-layer records it sums.
const maxBytesPerChunk = 1085

// TestPerChunkFootprint builds one store of footprintChunks chunks on a
// two-node rig, stages, ships and remote-commits every chunk, collects the
// heap and holds the retained bytes per chunk to maxBytesPerChunk, so a
// per-chunk record that grows back fails here before it shows in a fleet
// run's live heap.
func TestPerChunkFootprint(t *testing.T) {
	names := make([]string, footprintChunks)
	for i := range names {
		names[i] = fmt.Sprintf("var-%d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	e := sim.NewEnv()
	r, agent := newRig(e, Config{Scheme: AsyncBurst})
	e.Go("app", func(p *sim.Proc) {
		for _, name := range names {
			c, err := r.store.NVAlloc(p, name, 256*mem.KB, true)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.WriteAll(p); err != nil {
				t.Error(err)
				return
			}
		}
		r.store.ChkptAll(p)
		agent.TriggerRemote(p).Await(p)
		agent.Stop()
	})
	e.Run()
	if got := agent.Counters.Get("ships"); got != footprintChunks {
		t.Fatalf("ships = %d, want %d", got, footprintChunks)
	}
	if got := r.mesh.Counters.Get("commits"); got != 1 {
		t.Fatalf("remote commits = %d, want 1", got)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / footprintChunks
	runtime.KeepAlive(r)
	t.Logf("%d bytes retained per chunk", per)
	if per > maxBytesPerChunk {
		t.Errorf("%d bytes retained per chunk, want at most %d", per, maxBytesPerChunk)
	}
}
