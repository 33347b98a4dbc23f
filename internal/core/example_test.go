package core_test

import (
	"fmt"

	"nvmcp/internal/core"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/sim"
)

// Example shows the basic Table III workflow: allocate checkpoint variables,
// compute, checkpoint, and observe that unmodified chunks are skipped.
func Example() {
	env := sim.NewEnv()
	kernel := nvmkernel.New(env, mem.NewDRAM(env, 8*mem.GB), mem.NewPCM(env, 8*mem.GB))

	env.Go("app", func(p *sim.Proc) {
		store := core.NewStore(kernel.Attach("rank0"), core.Options{})

		field, _ := store.NVAlloc(p, "field", 64*mem.MB, true)
		grid, _ := store.NVAlloc(p, "grid", 16*mem.MB, true)

		field.WriteAll(p)
		grid.WriteAll(p)
		st := store.ChkptAll(p)
		fmt.Printf("first checkpoint: %d copied, %d skipped\n", st.ChunksCopied, st.ChunksSkipped)

		field.Write(p, 0, mem.MB) // only field changes
		st = store.ChkptAll(p)
		fmt.Printf("second checkpoint: %d copied, %d skipped\n", st.ChunksCopied, st.ChunksSkipped)
	})
	env.Run()
	// Output:
	// first checkpoint: 2 copied, 0 skipped
	// second checkpoint: 1 copied, 1 skipped
}

// ExampleStore_PreCopyChunk stages a dirty chunk in the background so the
// coordinated checkpoint has nothing left to move.
func ExampleStore_PreCopyChunk() {
	env := sim.NewEnv()
	kernel := nvmkernel.New(env, mem.NewDRAM(env, 8*mem.GB), mem.NewPCM(env, 8*mem.GB))
	env.Go("app", func(p *sim.Proc) {
		store := core.NewStore(kernel.Attach("rank0"), core.Options{})
		c, _ := store.NVAlloc(p, "field", 32*mem.MB, true)
		c.WriteAll(p)

		moved := store.PreCopyChunk(p, c)
		fmt.Printf("pre-copied %d MB\n", moved/mem.MB)

		st := store.ChkptAll(p)
		fmt.Printf("checkpoint copied %d bytes\n", st.BytesCopied)
	})
	env.Run()
	// Output:
	// pre-copied 32 MB
	// checkpoint copied 0 bytes
}

// ExampleGenID derives stable chunk identifiers from variable names.
func ExampleGenID() {
	fmt.Println(core.GenID("electrons") == core.GenID("electrons"))
	fmt.Println(core.GenID("electrons") == core.GenID("ions"))
	// Output:
	// true
	// false
}
