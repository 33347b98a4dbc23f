package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CheckpointRound aggregates one coordinated checkpoint round across ranks,
// rebuilt from the EvCheckpointCommit events on the bus.
type CheckpointRound struct {
	Round int `json:"round"`
	// Ranks is how many ranks committed in this round.
	Ranks int `json:"ranks"`
	// BytesCopied is the data moved at checkpoint time (pre-copied chunks
	// contribute nothing here).
	BytesCopied int64 `json:"bytes_copied"`
	// ChunksCopied / ChunksSkipped aggregate the per-rank stage decisions.
	ChunksCopied  int64 `json:"chunks_copied"`
	ChunksSkipped int64 `json:"chunks_skipped"`
	// DurSecs summarizes per-rank blocking time in seconds.
	DurSecs Summary `json:"dur_secs"`
	// StartUS is the earliest commit-event timestamp of the round.
	StartUS int64 `json:"start_us"`
}

// CheckpointRounds groups the commit events by their round attribute.
// Rounds repeat when a failure rolls the job back; repeated rounds merge,
// which is the honest per-round total (the work really was done again).
func CheckpointRounds(events []Event) []CheckpointRound {
	type acc struct {
		round CheckpointRound
		durs  []float64
	}
	byRound := make(map[int]*acc)
	for _, ev := range events {
		if ev.Type != EvCheckpointCommit {
			continue
		}
		r, _ := ev.Attrs.Int("round")
		round := int(r)
		a := byRound[round]
		if a == nil {
			a = &acc{round: CheckpointRound{Round: round, StartUS: ev.TUS}}
			byRound[round] = a
		}
		a.round.Ranks++
		a.round.BytesCopied += ev.Bytes
		if n, ok := ev.Attrs.Int("copied"); ok {
			a.round.ChunksCopied += n
		}
		if n, ok := ev.Attrs.Int("skipped"); ok {
			a.round.ChunksSkipped += n
		}
		if us, ok := ev.Attrs.Int("dur_us"); ok {
			a.durs = append(a.durs, float64(us)/1e6)
		}
		if ev.TUS < a.round.StartUS {
			a.round.StartUS = ev.TUS
		}
	}
	out := make([]CheckpointRound, 0, len(byRound))
	for _, a := range byRound {
		a.round.DurSecs = Summarize(a.durs)
		out = append(out, a.round)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

// RunReport is the end-of-run machine-readable artifact: the configuration
// the run was launched with, its per-checkpoint statistics, every scalar
// metric, and descriptive rollups — a stable baseline future PRs diff
// against.
type RunReport struct {
	Tool string `json:"tool"`
	// Config echoes the run configuration (the caller passes whatever struct
	// it was launched from).
	Config any `json:"config,omitempty"`
	// Result echoes the run's headline result struct so report totals match
	// the printed tables by construction.
	Result any `json:"result,omitempty"`
	// Checkpoints is the per-round aggregation of coordinated checkpoints.
	Checkpoints []CheckpointRound `json:"checkpoints"`
	// Metrics flattens every counter and gauge as "name{labels}" → value.
	Metrics map[string]float64 `json:"metrics"`
	// Summaries holds Summary rollups of interesting per-round series.
	Summaries map[string]Summary `json:"summaries"`
	// Lineage is the lineage tracer's summary (per-tier transition counts,
	// deepest recovery path, violation count) when tracing was on. Typed
	// `any` so obs does not import the lineage package; the cmds set it.
	Lineage any `json:"lineage,omitempty"`
	// SLO is the flight recorder's summary (windows closed, objective
	// statuses, violation count) when SLO recording was on. Typed `any` so
	// obs does not import the slo package; the cmds set it.
	SLO any `json:"slo,omitempty"`
	// EventCount is the bus length (the JSONL sink has the full stream).
	EventCount int `json:"event_count"`
	// VirtualEndUS is the virtual clock at report time, microseconds.
	VirtualEndUS int64 `json:"virtual_end_us"`
}

// BuildReport assembles the RunReport for this observer. config and result
// are echoed verbatim (pass nil to omit).
func (o *Observer) BuildReport(tool string, config, result any) RunReport {
	v := o.view(EvCheckpointCommit)
	rounds := CheckpointRounds(v.events())
	bytesPerRound := make([]float64, len(rounds))
	durMeanPerRound := make([]float64, len(rounds))
	for i, r := range rounds {
		bytesPerRound[i] = float64(r.BytesCopied)
		durMeanPerRound[i] = r.DurSecs.Mean
	}
	return RunReport{
		Tool:        tool,
		Config:      config,
		Result:      result,
		Checkpoints: rounds,
		Metrics:     o.reg.Flatten(),
		Summaries: map[string]Summary{
			"ckpt_bytes_per_round":    Summarize(bytesPerRound),
			"ckpt_mean_dur_per_round": Summarize(durMeanPerRound),
		},
		EventCount:   v.n,
		VirtualEndUS: o.env.Now().Microseconds(),
	}
}

// WriteReport renders a report as indented JSON.
func WriteReport(w io.Writer, r RunReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("obs: encode report: %w", err)
	}
	return nil
}
