package core

import (
	"encoding/json"
	"time"
)

// LoopJSON is the machine-readable form of one LoopResult, emitted by
// `dca analyze -json` and the `dca serve` /analyze endpoint.
type LoopJSON struct {
	ID             string `json:"id"`
	Fn             string `json:"fn"`
	Index          int    `json:"index"`
	Pos            string `json:"pos,omitempty"`
	Depth          int    `json:"depth"`
	Verdict        string `json:"verdict"`
	Parallelizable bool   `json:"parallelizable"`
	// Category is the sandbox trap category ("fault", "budget", "timeout",
	// "panic") behind a trap-derived verdict; empty when no trap fired.
	Category        string `json:"category,omitempty"`
	Reason          string `json:"reason,omitempty"`
	Provenance      string `json:"provenance,omitempty"`
	Invocations     int    `json:"invocations"`
	Iterations      int64  `json:"iterations"`
	SchedulesTested int    `json:"schedules_tested"`
	Retries         int    `json:"retries,omitempty"`
	Replays         int    `json:"replays"`
	// SkippedStop / SkippedFootprint count schedule replays not run thanks
	// to the sequential stopping rule and the footprint fast path;
	// SkippedProve counts the schedule replays the static commutativity
	// prover skipped (the golden run still executes as the coverage
	// witness).
	SkippedStop      int     `json:"skipped_stop,omitempty"`
	SkippedFootprint int     `json:"skipped_footprint,omitempty"`
	SkippedProve     int     `json:"skipped_prove,omitempty"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
}

// ReportJSON is the machine-readable form of a whole-program Report.
type ReportJSON struct {
	Loops []LoopJSON `json:"loops"`
	// Summary counts loops per verdict name.
	Summary        map[string]int `json:"summary"`
	TotalLoops     int            `json:"total_loops"`
	Commutative    int            `json:"commutative"`
	CachedLoops    int            `json:"cached_loops"`
	ProvedLoops    int            `json:"proved_loops,omitempty"`
	Replays        int            `json:"replays"`
	ElapsedSeconds float64        `json:"elapsed_seconds"`
}

// JSON converts the report to its machine-readable form. elapsed is the
// whole-analysis wall-clock time (0 leaves the field to the per-loop sums'
// readers).
func (r *Report) JSON(elapsed time.Duration) *ReportJSON {
	rep := &ReportJSON{
		Loops:          make([]LoopJSON, 0, len(r.Loops)),
		Summary:        map[string]int{},
		TotalLoops:     len(r.Loops),
		Commutative:    r.Count(Commutative),
		CachedLoops:    r.CachedLoops(),
		ProvedLoops:    r.ProvedLoops(),
		Replays:        r.Replays(),
		ElapsedSeconds: elapsed.Seconds(),
	}
	for _, l := range r.Loops {
		rep.Summary[l.Verdict.String()]++
		rep.Loops = append(rep.Loops, l.JSON())
	}
	return rep
}

// JSON converts one loop result to its machine-readable form — the same
// record Report.JSON emits, also streamed per-loop by `GET /runs/{id}/events`.
func (l *LoopResult) JSON() LoopJSON {
	lj := LoopJSON{
		ID:               l.ID,
		Fn:               l.Fn,
		Index:            l.Index,
		Depth:            l.Depth,
		Verdict:          l.Verdict.String(),
		Parallelizable:   l.Verdict.IsParallelizable(),
		Category:         l.TrapKind,
		Reason:           l.Reason,
		Provenance:       l.Provenance,
		Invocations:      l.Invocations,
		Iterations:       l.Iterations,
		SchedulesTested:  l.SchedulesTested,
		Retries:          l.Retries,
		Replays:          l.Replays,
		SkippedStop:      l.SkippedStop,
		SkippedFootprint: l.SkippedFootprint,
		SkippedProve:     l.SkippedProve,
		ElapsedSeconds:   l.Elapsed.Seconds(),
	}
	if l.Pos.IsValid() {
		lj.Pos = l.Pos.String()
	}
	return lj
}

// MarshalIndentJSON renders the report as indented JSON with a trailing
// newline — the exact bytes `dca analyze -json` prints.
func (r *Report) MarshalIndentJSON(elapsed time.Duration) ([]byte, error) {
	data, err := json.MarshalIndent(r.JSON(elapsed), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
