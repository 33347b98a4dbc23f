// Package workload provides synthetic versions of the paper's three
// evaluation applications — GTC, LAMMPS (Rhodo suite), and CM1 — plus the
// MADBench2-style I/O driver of the Section IV motivation experiment and the
// LANL parallel-memcpy benchmark behind Figure 4.
//
// Each application is a chunk-set specification (sizes following the Table IV
// distribution shapes) and a per-iteration modification schedule: which
// chunks are written at which fraction of the compute interval. The schedule
// is what drives pre-copy behaviour — init-only chunks (GTC's large arrays
// written once at startup), mid-iteration chunks, and hot chunks that keep
// changing until the end of the iteration (LAMMPS's 3D result array,
// Figure 6) all come from the paper's own characterization.
package workload

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/mem"
	"nvmcp/internal/sim"
)

// ChunkSpec describes one checkpoint variable of an application.
type ChunkSpec struct {
	Name string
	Size int64
	// ModPhases lists the fractions of the compute interval (in (0,1])
	// at which the chunk is modified each iteration. Empty plus InitOnly
	// means the chunk is written once during setup and never again.
	ModPhases []float64
	// InitOnly chunks are written during initialization only.
	InitOnly bool
	// GrowthPerIter, when > 1, grows the chunk by this factor every
	// iteration via NVRealloc — the adaptive-mesh case whose checkpoint
	// size is not statically known.
	GrowthPerIter float64
}

// AppSpec describes a synthetic application (per rank).
type AppSpec struct {
	Name string
	// Chunks is the per-rank checkpoint variable set.
	Chunks []ChunkSpec
	// IterTime is the pure-compute duration of one iteration.
	IterTime time.Duration
	// CommPerIter is how many bytes each rank sends to its neighbour per
	// iteration (application communication, spread over CommPhases).
	CommPerIter int64
	// CommPhases are the interval fractions at which communication
	// exchanges occur (defaults to DefaultCommOps evenly spread points
	// when CommPerIter > 0).
	CommPhases []float64
	// ShiftIter, when > 0 with ShiftExtraMods, changes the write behaviour
	// from that (0-based) iteration on: every non-init chunk gains
	// ShiftExtraMods extra late-interval modification phases per iteration.
	// Late writes land after pre-copy staging, so the re-dirty rate jumps —
	// a deterministic workload phase change for exercising the drift
	// observatory's phase detector.
	ShiftIter      int64
	ShiftExtraMods int
}

// DefaultCommOps is the default number of communication exchanges per
// iteration when a spec sets CommPerIter without explicit phases.
const DefaultCommOps = 12

// CheckpointSize returns the total persistent data per rank.
func (s AppSpec) CheckpointSize() int64 {
	var total int64
	for _, c := range s.Chunks {
		total += c.Size
	}
	return total
}

// Scaled returns a copy of the spec with every chunk size multiplied by
// factor (chunk counts and schedules unchanged), for experiments that pin the
// per-rank checkpoint volume.
func (s AppSpec) Scaled(factor float64) AppSpec {
	out := s
	out.Chunks = make([]ChunkSpec, len(s.Chunks))
	for i, c := range s.Chunks {
		c.Size = int64(float64(c.Size) * factor)
		if c.Size < 1 {
			c.Size = 1
		}
		out.Chunks[i] = c
	}
	return out
}

// ScaledTo returns the spec scaled so the per-rank checkpoint size is
// approximately total bytes.
func (s AppSpec) ScaledTo(total int64) AppSpec {
	return s.Scaled(float64(total) / float64(s.CheckpointSize()))
}

// GTC builds the Gyrokinetic Toroidal Code profile: a few very large 2D
// particle arrays (electrons, ions) rewritten every iteration, one large
// grid written only at initialization (the paper's observed checkpoint-size
// reduction), one mid-size array, and several small diagnostic arrays.
// Natural checkpoint size ≈ 430 MB/rank; count distribution follows
// Table IV's GTC row (~45% sub-MB, ~9% 10-20MB, ~45% above 100MB).
func GTC() AppSpec {
	chunks := []ChunkSpec{
		{Name: "electrons", Size: 104 * mem.MB, ModPhases: []float64{0.45}},
		{Name: "ions", Size: 104 * mem.MB, ModPhases: []float64{0.5}},
		{Name: "zion", Size: 104 * mem.MB, ModPhases: []float64{0.55}},
		{Name: "grid-static", Size: 104 * mem.MB, InitOnly: true},
		{Name: "fieldtime", Size: 12 * mem.MB, ModPhases: []float64{0.6}},
		{Name: "diag-flux", Size: 800 * mem.KB, ModPhases: []float64{0.3}},
		{Name: "diag-mode", Size: 800 * mem.KB, ModPhases: []float64{0.35}},
		{Name: "diag-hist", Size: 800 * mem.KB, ModPhases: []float64{0.4, 0.8}},
		{Name: "diag-entropy", Size: 800 * mem.KB, ModPhases: []float64{0.7}},
	}
	return AppSpec{
		Name:        "gtc",
		Chunks:      chunks,
		IterTime:    40 * time.Second,
		CommPerIter: 768 * mem.MB, // communication intensive: ~25% of the iteration on the wire
	}
}

// LAMMPSRhodo builds the LAMMPS Rhodo(Spin) profile: a relatively large
// number of chunks modified across different application stages, including a
// hot 3D result array modified until the very end of each iteration — the
// chunk class that motivates DCPCP (Figure 6). Natural size ≈ 420 MB/rank;
// count distribution follows Table IV's LAMMPS row.
func LAMMPSRhodo() AppSpec {
	chunks := []ChunkSpec{
		// Hot: relative molecular positions, modified until iteration end.
		{Name: "x-positions", Size: 104 * mem.MB, ModPhases: []float64{0.2, 0.6, 0.95}},
		{Name: "velocities", Size: 104 * mem.MB, ModPhases: []float64{0.25, 0.65}},
		{Name: "forces", Size: 104 * mem.MB, ModPhases: []float64{0.3}},
		{Name: "neigh-list", Size: 56 * mem.MB, ModPhases: []float64{0.4}},
		{Name: "bond-table", Size: 56 * mem.MB, ModPhases: []float64{0.5, 0.9}},
		{Name: "angle-data", Size: 6 * mem.MB, ModPhases: []float64{0.35}},
		{Name: "dihedral", Size: 4 * mem.MB, ModPhases: []float64{0.45}},
		{Name: "improper", Size: 2 * mem.MB, ModPhases: []float64{0.55}},
		{Name: "molecule-map", Size: 2 * mem.MB, ModPhases: []float64{0.6}},
		{Name: "special-bonds", Size: 1536 * mem.KB, ModPhases: []float64{0.7}},
		{Name: "tag-array", Size: 800 * mem.KB, ModPhases: []float64{0.3}},
		{Name: "type-array", Size: 800 * mem.KB, ModPhases: []float64{0.8}},
	}
	return AppSpec{
		Name:        "lammps-rhodo",
		Chunks:      chunks,
		IterTime:    40 * time.Second,
		CommPerIter: 384 * mem.MB,
	}
}

// CM1 builds the CM1 3D hurricane-simulation profile: many small and
// mid-size chunks, almost nothing above 100 MB — which is why pre-copy buys
// CM1 little (< 5% in the paper): small chunks do not contend for NVM
// bandwidth long enough to matter. Natural size ≈ 400 MB/rank.
func CM1() AppSpec {
	var chunks []ChunkSpec
	for i := 0; i < 10; i++ {
		chunks = append(chunks, ChunkSpec{
			Name:      fmt.Sprintf("scalar-%d", i),
			Size:      720 * mem.KB,
			ModPhases: []float64{0.3 + 0.05*float64(i%5)},
		})
	}
	for i := 0; i < 13; i++ {
		chunks = append(chunks, ChunkSpec{
			Name:      fmt.Sprintf("field3d-%d", i),
			Size:      22 * mem.MB,
			ModPhases: []float64{0.35 + 0.04*float64(i%6)},
		})
	}
	chunks = append(chunks, ChunkSpec{
		Name: "restart-blob", Size: 105 * mem.MB, ModPhases: []float64{0.6},
	})
	return AppSpec{
		Name:        "cm1",
		Chunks:      chunks,
		IterTime:    40 * time.Second,
		CommPerIter: 256 * mem.MB,
	}
}

// AMR builds an adaptive-mesh-refinement-style profile: chunk sizes are not
// statically known and grow as the mesh refines — the application class the
// paper's nvattach/nvrealloc interfaces exist for ("in some applications,
// the checkpoint size cannot be statically determined"). GrowthPerIter is
// the per-iteration growth factor applied by App.Iterate via NVRealloc.
func AMR() AppSpec {
	var chunks []ChunkSpec
	for i := 0; i < 8; i++ {
		chunks = append(chunks, ChunkSpec{
			Name:      fmt.Sprintf("patch-%d", i),
			Size:      24 * mem.MB,
			ModPhases: []float64{0.3 + 0.05*float64(i%6)},
			// Refining patches grow 15% per iteration.
			GrowthPerIter: 1.15,
		})
	}
	chunks = append(chunks,
		ChunkSpec{Name: "grid-topology", Size: 48 * mem.MB, ModPhases: []float64{0.5}},
		ChunkSpec{Name: "boundary", Size: 8 * mem.MB, ModPhases: []float64{0.4, 0.8}},
	)
	return AppSpec{
		Name:        "amr",
		Chunks:      chunks,
		IterTime:    40 * time.Second,
		CommPerIter: 256 * mem.MB,
	}
}

// Specs returns all three paper application profiles (AMR, an extension, is
// retrievable by name).
func Specs() []AppSpec { return []AppSpec{GTC(), LAMMPSRhodo(), CM1()} }

// Names lists every workload profile by name: the three paper applications,
// then AMR, an extension.
var Names = [...]string{"gtc", "lammps-rhodo", "cm1", "amr"}

// profiles builds the profile named at the same index of Names.
var profiles = [len(Names)]func() AppSpec{GTC, LAMMPSRhodo, CM1, AMR}

// SpecByName builds the named profile, or returns false.
func SpecByName(name string) (AppSpec, bool) {
	if i := slices.Index(Names[:], name); i >= 0 {
		return profiles[i](), true
	}
	return AppSpec{}, false
}

// TableIVBuckets are the paper's chunk-size histogram edges.
var TableIVBuckets = []float64{
	500 * 1024,      // 500 KB
	float64(mem.MB), // 1 MB
	10 * float64(mem.MB),
	20 * float64(mem.MB),
	50 * float64(mem.MB),
	100 * float64(mem.MB),
	100 * float64(mem.GB), // open top
}

// SizeDistribution returns the share (by chunk count) of an application's
// chunks falling into the paper's Table IV ranges: 500K-1MB, 10-20MB,
// 50-100MB, and above 100MB.
func SizeDistribution(spec AppSpec) (subMB, mid10to20, mid50to100, over100 float64) {
	h := newHistogram(TableIVBuckets)
	for _, c := range spec.Chunks {
		h.Add(float64(c.Size))
	}
	n := float64(len(spec.Chunks))
	if n == 0 {
		return 0, 0, 0, 0
	}
	return float64(h.Counts[0]) / n, // [500K, 1MB)
		float64(h.Counts[2]) / n, // [10MB, 20MB)
		float64(h.Counts[4]) / n, // [50MB, 100MB)
		float64(h.Counts[5]) / n // [100MB, ...)
}

// App is a rank-level instance of a spec bound to a checkpoint store.
type App struct {
	Spec   AppSpec
	Store  *core.Store
	Chunks []*core.Chunk
	// Comm, when set, is invoked for each communication burst with the
	// number of bytes to send; the cluster wires it to the fabric.
	Comm func(p *sim.Proc, bytes int64)
	// Iterations counts completed Iterate calls.
	Iterations int64
}

// writeSeedStride spaces the per-iteration write-seed bands far apart so an
// iteration's seeds never collide with another's (or with the Setup writes,
// which use the chunk's own small auto-incremented sequence).
const writeSeedStride = 1 << 16

// SyncIteration aligns the iteration counter after a restart, so Iterate's
// seeded writes replay exactly the sequence the original iteration produced.
func (a *App) SyncIteration(iter int64) { a.Iterations = iter }

// Setup allocates every chunk of the spec through the Table III interface
// and performs the initialization writes (including init-only chunks).
func Setup(p *sim.Proc, store *core.Store, spec AppSpec) (*App, error) {
	a := &App{Spec: spec, Store: store}
	for _, cs := range spec.Chunks {
		c, err := store.NVAlloc(p, cs.Name, cs.Size, true)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
		}
		if !c.Restored {
			if err := c.WriteAll(p); err != nil {
				return nil, err
			}
		}
		a.Chunks = append(a.Chunks, c)
	}
	return a, nil
}

// iterEvent is one scheduled action within an iteration.
type iterEvent struct {
	phase float64
	chunk int   // -1 for communication
	bytes int64 // communication bytes
}

// Iterate runs one compute interval: the rank sleeps through compute,
// touching each chunk at its modification phases and sending communication
// bursts at the spec's comm phases.
func (a *App) Iterate(p *sim.Proc) error {
	var events []iterEvent
	for i, cs := range a.Spec.Chunks {
		if cs.InitOnly {
			continue
		}
		for _, ph := range cs.ModPhases {
			events = append(events, iterEvent{phase: ph, chunk: i})
		}
	}
	if extra := a.Spec.ShiftExtraMods; extra > 0 && a.Spec.ShiftIter > 0 && a.Iterations >= a.Spec.ShiftIter {
		// Post-shift regime: pile extra writes into the tail of the interval.
		for i, cs := range a.Spec.Chunks {
			if cs.InitOnly {
				continue
			}
			for j := 0; j < extra; j++ {
				ph := 1 - 0.15*float64(j+1)/float64(extra+1)
				events = append(events, iterEvent{phase: ph, chunk: i})
			}
		}
	}
	if a.Spec.CommPerIter > 0 && a.Comm != nil {
		phases := a.Spec.CommPhases
		if len(phases) == 0 {
			// MPI codes exchange throughout the iteration, not in a few
			// lumps: default to DefaultCommOps evenly spread exchanges.
			for i := 0; i < DefaultCommOps; i++ {
				phases = append(phases, (float64(i)+0.5)/DefaultCommOps)
			}
		}
		per := a.Spec.CommPerIter / int64(len(phases))
		for _, ph := range phases {
			events = append(events, iterEvent{phase: ph, chunk: -1, bytes: per})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].phase < events[j].phase })

	now := 0.0
	writes := 0
	for _, ev := range events {
		if ev.phase > now {
			p.Sleep(time.Duration((ev.phase - now) * float64(a.Spec.IterTime)))
			now = ev.phase
		}
		if ev.chunk >= 0 {
			// Seed each write from (iteration, write index) so a replayed
			// iteration after a restart regenerates byte-identical chunk
			// contents regardless of which tier recovered the chunk.
			a.Chunks[ev.chunk].SeedWrites(uint64(a.Iterations)*writeSeedStride + uint64(writes))
			writes++
			if err := a.Chunks[ev.chunk].WriteAll(p); err != nil {
				return err
			}
		} else {
			a.Comm(p, ev.bytes)
		}
	}
	if now < 1 {
		p.Sleep(time.Duration((1 - now) * float64(a.Spec.IterTime)))
	}
	// Mesh refinement: growing chunks are reallocated at iteration end.
	for i, cs := range a.Spec.Chunks {
		if cs.GrowthPerIter > 1 {
			newSize := int64(float64(a.Chunks[i].Size) * cs.GrowthPerIter)
			if err := a.Store.NVRealloc(p, a.Chunks[i], newSize); err != nil {
				return err
			}
		}
	}
	a.Iterations++
	return nil
}
