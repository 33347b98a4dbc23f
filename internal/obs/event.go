// Package obs is the unified instrumentation layer: a typed, virtual-time-
// stamped event bus, a metrics registry (counters, gauges, bandwidth
// timelines) with per-node and cluster-level scopes, and sinks
// that render a run as structured JSONL events, a Prometheus-style text
// exposition, a Chrome/Perfetto trace, and an end-of-run RunReport.
//
// Subsystems never talk to sinks directly: they hold a *Recorder — a cheap,
// nil-safe handle scoped to one (node, actor) pair — and publish events,
// spans, and metric updates through it. A nil Recorder drops everything, so
// library code can instrument unconditionally and pay nothing when a test or
// experiment runs without an Observer.
//
// All Observer and Registry state is mutex-guarded: the introspection server
// and the control plane read a run's metrics from HTTP goroutines while it
// publishes, and experiment sweeps run many simulations concurrently.
package obs

import "time"

// Type names one kind of event in the taxonomy. The set below covers the
// checkpoint lifecycle end to end; sinks treat the type as an opaque label,
// so subsystems may introduce new types without touching this package.
type Type string

// The event taxonomy.
const (
	// EvCheckpointBegin marks one rank entering a coordinated local
	// checkpoint; Attrs carry the round number.
	EvCheckpointBegin Type = "ckpt_begin"
	// EvCheckpointCommit marks the rank's commit flip; Bytes is the data the
	// checkpoint itself copied, Attrs carry round, copied/skipped counts and
	// the duration in microseconds.
	EvCheckpointCommit Type = "ckpt_commit"
	// EvChunkStaged records one chunk staged DRAM→NVM (pre-copy or
	// checkpoint path); Chunk names it, Bytes is its virtual size.
	EvChunkStaged Type = "chunk_staged"
	// EvChunkReDirtied records a modification to a chunk whose staged data
	// had not yet committed — work the checkpoint must redo.
	EvChunkReDirtied Type = "chunk_redirtied"
	// EvChunkShipped records the helper moving one staged chunk to the buddy.
	EvChunkShipped Type = "chunk_shipped"
	// EvPrecopyCopy records one background pre-copy of a chunk; Attrs note
	// whether the copy raced a concurrent modification.
	EvPrecopyCopy Type = "precopy_copy"
	// EvHelperWake / EvHelperSleep mark the remote helper's busy/idle
	// transitions (not every poll — only edges).
	EvHelperWake  Type = "helper_wake"
	EvHelperSleep Type = "helper_sleep"
	// EvRestore records one chunk recovered on restart; Attrs carry the
	// source ("local", "lazy", or "remote").
	EvRestore Type = "restore"
	// EvRemoteTrigger marks a remote checkpoint trigger on a node.
	EvRemoteTrigger Type = "remote_trigger"
	// EvRemoteCommit marks the helper flipping the buddy-side versions.
	EvRemoteCommit Type = "remote_commit"
	// EvFailure records an injected failure; Attrs carry the kind.
	EvFailure Type = "failure"
	// EvFailureSkipped records an injection that was dropped (ranks not
	// live, or another failure already pending); Attrs carry the reason.
	EvFailureSkipped Type = "failure_skipped"
	// EvNVMCorrupt records latent media damage injected into committed
	// chunk payloads; Attrs carry the damaged-chunk count and mode.
	EvNVMCorrupt Type = "nvm_corrupt"
	// EvLinkFlap / EvLinkRestore bracket a fabric degradation window on a
	// node; Attrs carry the residual bandwidth factor and duration.
	EvLinkFlap    Type = "link_flap"
	EvLinkRestore Type = "link_restore"
	// EvShipRetry records the helper backing off after a blocked ship
	// attempt; Attrs carry the reason and attempt number.
	EvShipRetry Type = "ship_retry"
	// EvBuddyFailover records the helper re-buddying to a live node after
	// exhausting retries against a dead one.
	EvBuddyFailover Type = "buddy_failover"
	// EvChecksumError records a restore-time checksum mismatch; Attrs say
	// whether the chunk was salvaged into the recovery cascade.
	EvChecksumError Type = "checksum_error"
	// EvChunkRecovered records the cascade's verdict for one chunk on
	// restart; Attrs carry the tier that supplied it (local/remote/bottom)
	// or "none" when every tier missed.
	EvChunkRecovered Type = "chunk_recovered"
	// EvRecovery marks the cluster relaunching after a failure.
	EvRecovery Type = "recovery"
	// EvRepairDone marks the last rank finishing its post-failure recovery
	// cascade — the instant the repair window that opened at EvFailure
	// closes. Attrs carry the window's length ("mttr_us"), so windowed
	// consumers (the SLO flight recorder) can compute MTTR and degraded
	// time from the bus alone.
	EvRepairDone Type = "repair_done"
	// EvIteration marks one rank finishing a compute iteration.
	EvIteration Type = "iteration"
	// EvChunkDirty records the first modification of a new chunk generation
	// (a clean chunk going dirty); Attrs carry the generation seq. Redirties
	// of an already-staged generation stay EvChunkReDirtied.
	EvChunkDirty Type = "chunk_dirty"
	// EvChunkCommit records one chunk's local commit flip; Attrs carry the
	// committed generation seq and the chunk's version counter.
	EvChunkCommit Type = "chunk_commit"
	// EvRemoteChunkCommit records the helper flipping one chunk's buddy-side
	// committed slot; Attrs carry the committed generation seq.
	EvRemoteChunkCommit Type = "remote_chunk_commit"
	// EvChunkCorrupt records latent media damage to one committed chunk
	// payload (the per-victim companion to the aggregated EvNVMCorrupt);
	// Attrs carry the damaged generation seq, version, mode, and cause.
	EvChunkCorrupt Type = "chunk_corrupt"
	// EvEngineWarn surfaces a rare, deduplicated simulation-engine warning
	// (e.g. the first negative-delay Schedule, clamped to zero, or a shard
	// request falling back to the serial engine); Attrs carry the warning
	// code and message.
	EvEngineWarn Type = "engine_warn"
	// EvPFSDrain records one object actually written to the parallel file
	// system by a drain pass (version-gated rewrites are skipped, so the
	// stream mirrors PFS contents); Attrs carry the object version/seq.
	EvPFSDrain Type = "pfs_drain"
	// EvReplan records a remote-placement re-plan applied during recovery;
	// Attrs carry the failure kind and the avoided holder set.
	EvReplan Type = "replan"
	// EvAbort records a control-plane cancellation of the run; Attrs carry
	// the reason.
	EvAbort Type = "abort"
)

// Event is one structured occurrence on the bus. Times are virtual
// (microseconds since simulation start), matching the Chrome trace
// timestamps so the JSONL stream and the Perfetto view line up. The bus
// keeps events as columns (see log.go); an Event is the view that taps,
// Events and the sinks read.
type Event struct {
	TUS   int64  `json:"t_us"`
	Type  Type   `json:"type"`
	Node  int    `json:"node"`
	Actor string `json:"actor,omitempty"`
	Chunk string `json:"chunk,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Attrs Attrs  `json:"attrs,omitempty"`
}

// Time returns the event's virtual time.
func (e Event) Time() time.Duration { return time.Duration(e.TUS) * time.Microsecond }
