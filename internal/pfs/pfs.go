// Package pfs models the bottom of the paper's multilevel storage hierarchy:
// the parallel file system (e.g. Lustre) that checkpoints ultimately drain
// to. The PFS is the component whose limited aggregate I/O bandwidth and
// contention motivate the whole paper (Section I: checkpoint-size/IO-
// bandwidth must fall drastically); here it is a cluster-wide shared
// bandwidth resource with per-client striping limits and a drain agent that
// lazily flushes committed remote (buddy) checkpoints down to it — the
// "local scratch → remote neighbour → PFS" chain of Section II.
package pfs

import (
	"errors"
	"fmt"
	"time"

	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/obs"
	"nvmcp/internal/remote"
	"nvmcp/internal/resource"
	"nvmcp/internal/sim"
)

// DefaultAggregateBW is the cluster-wide PFS ingest bandwidth. Petascale
// machines cite a few GB/s of sustained checkpoint bandwidth shared by the
// whole machine — the reason PFS-only checkpointing does not scale.
const DefaultAggregateBW = 2e9

// DefaultStripeBW caps what one client (node) can push, regardless of how
// idle the rest of the system is (OST striping limits).
const DefaultStripeBW = 500e6

// Errors.
var (
	ErrNoObject = errors.New("pfs: no such object")
)

// object is one stored checkpoint object.
type object struct {
	size    int64
	version uint64
	data    nvmkernel.Payload
}

// FS is the cluster-wide parallel file system.
type FS struct {
	env    *sim.Env
	ingest *resource.Pipe
	egress *resource.Pipe

	objects map[string]*object

	rec *obs.Recorder
}

// SetRecorder attaches the file system to the run's observability bus: each
// drain pass emits one EvPFSDrain per object actually written (version-gated
// rewrites are skipped), so the event stream mirrors PFS contents.
func (f *FS) SetRecorder(r *obs.Recorder) { f.rec = r }

// New builds a PFS with DefaultAggregateBW of ingest and egress bandwidth
// and a DefaultStripeBW cap per client.
func New(env *sim.Env) *FS {
	return &FS{
		env:     env,
		ingest:  resource.NewPipe(env, "pfs-ingest", DefaultAggregateBW, resource.FlatScaling()),
		egress:  resource.NewPipe(env, "pfs-egress", DefaultAggregateBW, resource.FlatScaling()),
		objects: make(map[string]*object),
	}
}

// Write stores (or replaces) a checkpoint object of the given virtual size
// with the given payload, blocking p while the data drains through the
// shared ingest bandwidth under the per-client stripe cap. The object keeps
// the payload itself: checkpoint payloads are immutable.
func (f *FS) Write(p *sim.Proc, name string, size int64, version uint64, data nvmkernel.Payload) {
	f.ingest.TransferCapped(p, size, DefaultStripeBW)
	f.objects[name] = &object{
		size:    size,
		version: version,
		data:    data,
	}
}

// Read fetches a checkpoint object's payload, blocking p for the transfer.
// The returned payload is the stored one, shared.
func (f *FS) Read(p *sim.Proc, name string) (nvmkernel.Payload, int64, uint64, error) {
	obj, ok := f.objects[name]
	if !ok {
		return nvmkernel.Payload{}, 0, 0, fmt.Errorf("%w: %s", ErrNoObject, name)
	}
	f.egress.TransferCapped(p, obj.size, DefaultStripeBW)
	return obj.data, obj.size, obj.version, nil
}

// Stat reports whether an object exists and its version.
func (f *FS) Stat(name string) (int64, uint64, bool) {
	obj, ok := f.objects[name]
	if !ok {
		return 0, 0, false
	}
	return obj.size, obj.version, true
}

// DrainStats summarizes one drain pass.
type DrainStats struct {
	Objects  int
	Bytes    int64
	Duration time.Duration
}

// Drain flushes every committed remote copy node holder keeps in mesh whose
// version is newer than what the PFS holds — the lazy, lowest-frequency
// level of the hierarchy ("local scratch → remote neighbour → PFS").
// Returns what moved.
func (f *FS) Drain(p *sim.Proc, mesh *remote.Mesh, holder int) DrainStats {
	start := p.Now()
	var st DrainStats
	for _, obj := range mesh.CommittedList(holder) {
		if _, v, ok := f.Stat(obj.Name); ok && v >= obj.Version {
			continue
		}
		data, ok := mesh.CommittedData(p, holder, obj)
		if !ok {
			continue
		}
		f.Write(p, obj.Name, obj.Size, obj.Version, data)
		f.rec.Log(obs.EvPFSDrain, obj.Name, obj.Size, obs.Int("seq", int64(obj.Version)))
		st.Objects++
		st.Bytes += obj.Size
	}
	st.Duration = p.Now() - start
	return st
}
