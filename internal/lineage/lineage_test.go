package lineage

import (
	"strings"
	"testing"

	"nvmcp/internal/obs"
)

// sev builds a synthetic bus event. Core-side events carry the proc in
// Actor and the bare chunk name in Chunk; tier events carry the full key.
func sev(typ obs.Type, actor, chunk string, node int, attrs ...obs.Attr) obs.Event {
	return obs.Event{Type: typ, Node: node, Actor: actor, Chunk: chunk, Bytes: 64, Attrs: attrs}
}

func seq(g int64) obs.Attr { return obs.Int("seq", g) }

// feedHealthyCycle drives one chunk through a clean stage → commit → ship →
// remote-commit cycle at generation g.
func feedHealthyCycle(t *Tracer, g int64) {
	t.Observe(sev(obs.EvChunkDirty, "rank0", "field", 0, seq(g)))
	t.Observe(sev(obs.EvChunkStaged, "rank0", "field", 0, seq(g)))
	t.Observe(sev(obs.EvChunkCommit, "rank0", "field", 0, seq(g)))
	t.Observe(sev(obs.EvChunkShipped, "", "rank0/field", 0,
		seq(g), obs.Int("buddy", 1)))
	t.Observe(sev(obs.EvRemoteChunkCommit, "", "rank0/field", 1,
		seq(g), obs.Int("buddy", 1)))
}

func TestHealthyStreamHasNoViolations(t *testing.T) {
	tr := New()
	feedHealthyCycle(tr, 1)
	feedHealthyCycle(tr, 2)
	if n := tr.ViolationCount(); n != 0 {
		t.Fatalf("healthy stream produced %d violations: %v", n, tr.Violations())
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("Err() = %v on a healthy stream", err)
	}
	h, ok := tr.History("rank0/field")
	if !ok || len(h.Records) != 10 {
		t.Fatalf("history = %+v, ok=%t; want 10 records", h, ok)
	}
}

// A corrupted stream — a commit for a generation the local tier never
// staged — must be flagged, not absorbed.
func TestCommitWithoutStageIsFlagged(t *testing.T) {
	tr := New()
	tr.Observe(sev(obs.EvChunkCommit, "rank0", "field", 0, seq(3)))
	mustViolate(t, tr, "commit-without-stage")
}

func TestCommitOfWrongGenerationIsFlagged(t *testing.T) {
	tr := New()
	tr.Observe(sev(obs.EvChunkStaged, "rank0", "field", 0, seq(2)))
	tr.Observe(sev(obs.EvChunkCommit, "rank0", "field", 0, seq(3)))
	mustViolate(t, tr, "commit-without-stage")
}

func TestShipOfUnstagedGenerationIsFlagged(t *testing.T) {
	tr := New()
	tr.Observe(sev(obs.EvChunkStaged, "rank0", "field", 0, seq(2)))
	tr.Observe(sev(obs.EvChunkShipped, "", "rank0/field", 0,
		seq(5), obs.Int("buddy", 1)))
	mustViolate(t, tr, "ship-unstaged")
}

func TestRemoteCommitWithoutShipIsFlagged(t *testing.T) {
	tr := New()
	tr.Observe(sev(obs.EvRemoteChunkCommit, "", "rank0/field", 1,
		seq(2), obs.Int("buddy", 1)))
	mustViolate(t, tr, "remote-commit-without-ship")
}

// A chunk redirtied after its pre-copy must be recopied before the commit
// flips; committing the pre-copied (older) generation loses writes.
func TestRedirtyAfterPrecopyWithoutRecopyIsFlagged(t *testing.T) {
	tr := New()
	tr.Observe(sev(obs.EvChunkDirty, "rank0", "field", 0, seq(5)))
	tr.Observe(sev(obs.EvChunkStaged, "rank0", "field", 0, seq(5)))
	tr.Observe(sev(obs.EvPrecopyCopy, "rank0", "field", 0,
		seq(5), obs.Bool("raced", false)))
	tr.Observe(sev(obs.EvChunkReDirtied, "rank0", "field", 0, seq(6)))
	tr.Observe(sev(obs.EvChunkCommit, "rank0", "field", 0, seq(5)))
	mustViolate(t, tr, "redirty-not-recopied")
}

// Recovery must read the newest surviving copy: falling through to the
// bottom tier while a live remote copy exists is a stale recovery.
func TestBottomRecoveryDespiteLiveRemoteCopyIsFlagged(t *testing.T) {
	tr := New()
	feedHealthyCycle(tr, 1)
	tr.Observe(sev(obs.EvRecovery, "", "", 0, obs.Str("kind", "soft")))
	tr.Observe(sev(obs.EvChunkRecovered, "", "rank0/field", 0,
		obs.Str("tier", "bottom"), seq(1)))
	mustViolate(t, tr, "stale-recovery")
}

func TestLostDespiteSurvivingCopyIsFlagged(t *testing.T) {
	tr := New()
	feedHealthyCycle(tr, 1)
	tr.Observe(sev(obs.EvRecovery, "", "", 0, obs.Str("kind", "soft")))
	tr.Observe(sev(obs.EvChunkRecovered, "", "rank0/field", 0,
		obs.Str("tier", "lost"), seq(0)))
	mustViolate(t, tr, "stale-recovery")
}

func TestRecoveredFromTierThatNeverReceivedIsFlagged(t *testing.T) {
	tr := New()
	tr.Observe(sev(obs.EvChunkStaged, "rank0", "field", 0, seq(1)))
	tr.Observe(sev(obs.EvChunkCommit, "rank0", "field", 0, seq(1)))
	tr.Observe(sev(obs.EvRecovery, "", "", 0, obs.Str("kind", "hard")))
	// The remote tier claims to serve seq 1, but nothing was ever shipped
	// (let alone remote-committed) for this chunk.
	tr.Observe(sev(obs.EvChunkRecovered, "", "rank0/field", 0,
		obs.Str("tier", "remote"), seq(1)))
	mustViolate(t, tr, "commit-without-stage")
}

func TestRestoreOfDamagedGenerationIsFlagged(t *testing.T) {
	tr := New()
	tr.Observe(sev(obs.EvChunkDirty, "rank0", "field", 0, seq(1)))
	tr.Observe(sev(obs.EvChunkStaged, "rank0", "field", 0, seq(1)))
	tr.Observe(sev(obs.EvChunkCommit, "rank0", "field", 0, seq(1)))
	tr.Observe(sev(obs.EvChunkCorrupt, "", "rank0/field", 0,
		seq(1), obs.Str("cause", "nvm-corrupt@1s/node0")))
	tr.Observe(sev(obs.EvRecovery, "", "", 0, obs.Str("kind", "soft")))
	tr.Observe(sev(obs.EvRestore, "rank0", "field", 0,
		obs.Str("source", "local"), seq(1), obs.Int("reseq", 1)))
	mustViolate(t, tr, "stale-recovery")
}

// Erasure-style recoveries report seq 0 (provenance unknown); the checker
// must skip, not misfire, its remote-tier validity comparisons.
func TestUnknownSeqRecoverySkipsComparisons(t *testing.T) {
	tr := New()
	tr.Observe(sev(obs.EvChunkStaged, "rank0", "field", 0, seq(1)))
	tr.Observe(sev(obs.EvChunkCommit, "rank0", "field", 0, seq(1)))
	tr.Observe(sev(obs.EvRecovery, "", "", 0, obs.Str("kind", "hard")))
	tr.Observe(sev(obs.EvChunkRecovered, "", "rank0/field", 0,
		obs.Str("tier", "remote"), seq(0)))
	if n := tr.ViolationCount(); n != 0 {
		t.Fatalf("seq-0 recovery produced %d violations: %v", n, tr.Violations())
	}
}

func mustViolate(t *testing.T, tr *Tracer, rule string) {
	t.Helper()
	vs := tr.Violations()
	if len(vs) == 0 {
		t.Fatalf("corrupted stream produced no violations")
	}
	found := false
	for _, v := range vs {
		if v.Rule == rule {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %q violation in %v", rule, vs)
	}
	err := tr.Err()
	if err == nil {
		t.Fatal("Err() = nil despite violations")
	}
	if !strings.Contains(err.Error(), "lineage of") {
		t.Fatalf("Err() lacks the offending chunk's lineage dump: %v", err)
	}
}

func TestRingEvictsOldestIntoCompactedCounts(t *testing.T) {
	tr := New()
	for i := 0; i < ringSize+6; i++ {
		tr.Observe(sev(obs.EvChunkDirty, "rank0", "field", 0, seq(int64(i+1))))
	}
	h, ok := tr.History("rank0/field")
	if !ok {
		t.Fatal("chunk untracked")
	}
	if len(h.Records) != ringSize {
		t.Fatalf("ring holds %d records, want %d", len(h.Records), ringSize)
	}
	for i, r := range h.Records {
		if want := uint64(i + 7); r.Seq != want {
			t.Fatalf("record %d after wrapping has seq %d, want %d (oldest first)", i, r.Seq, want)
		}
	}
	if h.Compacted["dirty"] != 6 {
		t.Fatalf("compacted = %v, want dirty=6", h.Compacted)
	}
	if s := tr.Summary(); s.Records != ringSize+6 || s.CompactedRecords != 6 {
		t.Fatalf("summary records=%d compacted=%d, want %d/6", s.Records, s.CompactedRecords, ringSize+6)
	}
}

func TestEpochRolloverCompactsPrePreviousEpoch(t *testing.T) {
	tr := New()
	feedHealthyCycle(tr, 1) // epoch 0: 5 records
	tr.Observe(sev(obs.EvRecovery, "", "", 0, obs.Str("kind", "soft")))
	tr.Observe(sev(obs.EvRestore, "rank0", "field", 0,
		obs.Str("source", "local"), seq(1), obs.Int("reseq", 1)))
	tr.Observe(sev(obs.EvRecovery, "", "", 0, obs.Str("kind", "soft")))
	// Now in epoch 2: epoch-0 records must have folded into counts.
	h, _ := tr.History("rank0/field")
	for _, r := range h.Records {
		if r.Epoch < 1 {
			t.Fatalf("epoch-%d record survived two rollovers: %+v", r.Epoch, r)
		}
	}
	var folded uint64
	for _, n := range h.Compacted {
		folded += n
	}
	if folded != 5 {
		t.Fatalf("compacted %d records, want the 5 from epoch 0 (%v)", folded, h.Compacted)
	}
	if tr.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", tr.Epoch())
	}
}

func TestViolationDetailIsBoundedButCountIsNot(t *testing.T) {
	tr := New()
	for i := 0; i < maxViolations+3; i++ {
		tr.Observe(sev(obs.EvChunkCommit, "rank0", "field", 0, seq(9)))
	}
	if got := len(tr.Violations()); got != maxViolations {
		t.Fatalf("retained %d violation details, want %d", got, maxViolations)
	}
	if got := tr.ViolationCount(); got != maxViolations+3 {
		t.Fatalf("total count = %d, want %d", got, maxViolations+3)
	}
}

func TestTierRecordsFiltersAcrossChunks(t *testing.T) {
	tr := New()
	feedHealthyCycle(tr, 1)
	tr.Observe(sev(obs.EvChunkStaged, "rank1", "grid", 1, seq(1)))
	hs := tr.TierRecords("remote")
	if len(hs) != 1 || hs[0].Chunk != "rank0/field" || len(hs[0].Records) != 2 {
		t.Fatalf("remote tier records = %+v", hs)
	}
}
