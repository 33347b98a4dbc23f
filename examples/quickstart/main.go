// Quickstart: the smallest end-to-end use of the NVM-checkpoint library.
//
// One simulated process allocates checkpoint variables through the Table III
// interface, computes, checkpoints to local NVM, crashes, and restarts with
// its data verified against the stored checksums — all on one emulated node.
// It makes every Table III call: nvalloc, nv2dalloc, nvattach, nvrealloc,
// nvchkptall, nvchkptid, genid and nvdelete.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

func main() {
	env := sim.NewEnv()

	// One node: 48 GB DRAM plus a 16 GB PCM-class NVM with Table I
	// parameters, managed by the emulated NVM kernel.
	dram := mem.NewDRAM(env, 48*mem.GB)
	nvm := mem.NewPCM(env, 16*mem.GB)
	kernel := nvmkernel.New(env, dram, nvm)

	// --- First life of the application -----------------------------------
	env.Go("app", func(p *sim.Proc) {
		store := core.NewStore(kernel.Attach("rank0"), core.Options{})

		// nvalloc: allocate checkpoint variables. The application computes
		// on DRAM working copies; each has a shadow NVM placement.
		field, err := store.NVAlloc(p, "temperature-field", 200*mem.MB, true)
		check(err)
		grid, err := store.NV2DAlloc(p, "grid", 4096, 4096, 8)
		check(err)
		fmt.Printf("allocated %s and %s (%s checkpoint data)\n",
			field.Name, grid.Name, fmtMB(store.CheckpointSize()))

		// Compute: the application writes its variables.
		check(field.WriteAll(p))
		check(grid.WriteAll(p))
		p.Sleep(5 * time.Second)

		// nvchkptall: coordinated local checkpoint. Dirty chunks move
		// DRAM -> NVM at the device's bandwidth, caches are flushed, and
		// the commit records flip atomically.
		st := store.ChkptAll(p)
		fmt.Printf("checkpoint #1: copied %s in %v (%d chunks)\n",
			fmtMB(st.BytesCopied), st.Duration.Round(time.Millisecond), st.ChunksCopied)

		// More compute — only the field changes this time.
		check(field.Write(p, 0, 32*mem.MB))
		p.Sleep(5 * time.Second)

		// Second checkpoint: the unmodified grid is skipped entirely.
		st = store.ChkptAll(p)
		fmt.Printf("checkpoint #2: copied %s in %v (%d copied, %d skipped)\n",
			fmtMB(st.BytesCopied), st.Duration.Round(time.Millisecond),
			st.ChunksCopied, st.ChunksSkipped)

		// nvattach shadows memory the application manages itself (the
		// LAMMPS path); nvrealloc resizes it once its real size is known.
		atoms, err := store.NVAttach(p, "atoms", 8*mem.MB)
		check(err)
		check(store.NVRealloc(p, atoms, 24*mem.MB))
		check(atoms.WriteAll(p))

		// nvchkptid checkpoints one variable, named by its genid.
		st, err = store.ChkptID(p, core.GenID("atoms"))
		check(err)
		fmt.Printf("checkpoint of %s alone: copied %s\n", atoms.Name, fmtMB(st.BytesCopied))

		// nvdelete drops a variable and releases its NVM state.
		check(store.NVDelete(p, atoms))

		// The process now "crashes": DRAM contents are lost, NVM survives.
		fmt.Println("simulating a crash (soft failure: node survives, process dies)")
		p.KillSelf()
	})
	env.Run()
	kernel.SoftReset()

	// --- Restarted life ---------------------------------------------------
	env.Go("app-restarted", func(p *sim.Proc) {
		store := core.NewStore(kernel.Attach("rank0"), core.Options{})
		restartStart := p.Now()

		// The same nvalloc calls now find the committed checkpoint in NVM:
		// data is fetched back to DRAM and verified against its checksum.
		field, err := store.NVAlloc(p, "temperature-field", 200*mem.MB, true)
		check(err)
		grid, err := store.NV2DAlloc(p, "grid", 4096, 4096, 8)
		check(err)
		fmt.Printf("restart: field restored=%v (v%d), grid restored=%v (v%d)\n",
			field.Restored, field.Version, grid.Restored, grid.Version)
		fmt.Printf("restore took %v of simulated time (NVM reads run near DRAM speed)\n",
			(p.Now() - restartStart).Round(time.Millisecond))
	})
	env.Run()
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func fmtMB(b int64) string { return fmt.Sprintf("%.1f MB", float64(b)/(1<<20)) }
