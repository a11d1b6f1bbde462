package core

import (
	"encoding/json"

	"dca/internal/fingerprint"
	"dca/internal/instrument"
	"dca/internal/ir"
	"dca/internal/sandbox"
)

// CacheRecordVersion is the schema version of the serialized verdict
// records the analysis stores in a VerdictCache. Callers opening a
// persistent cache (internal/cache) pass it as the store's application
// version, so a record-format change invalidates every stale entry instead
// of decoding it. The fingerprint schema needs no version here: it is
// hashed into every key (fingerprint.Version), so key schemas can never
// alias.
const CacheRecordVersion uint32 = 2

// Verdict provenance values. Every analyzed loop records whether its
// outcome was computed by running the dynamic stage or served from the
// verdict cache.
const (
	// ProvenanceComputed: the verdict was produced by running the analysis
	// (including static-stage short circuits, which always run fresh).
	ProvenanceComputed = "computed"
	// ProvenanceCached: the dynamic-stage outcome was served from the
	// verdict cache; no golden run or replay executed.
	ProvenanceCached = "cached"
	// ProvenanceJournaled: the whole loop outcome was replayed from a
	// write-ahead run journal (`dca analyze -resume`); neither the static
	// nor the dynamic stage ran in this process.
	ProvenanceJournaled = "journaled"
	// ProvenanceFootprint: the reference run showed the loop's iterations
	// touch pairwise-disjoint heap cells, so the Commutative verdict was
	// issued without any instrumented execution.
	ProvenanceFootprint = "footprint-proved"
	// ProvenanceProved: the static commutativity prover (internal/prove)
	// closed a symbolic proof, so the Commutative verdict was issued
	// without any schedule replay — and without the golden run, unless the
	// reference run could not witness coverage (NoFootprint, a re-entered
	// loop).
	ProvenanceProved = "static-proved"
)

// VerdictCache is the incremental-analysis store consulted before each
// loop's dynamic stage. Keys are loop-analysis fingerprints
// (internal/fingerprint), values are serialized verdict records; both
// methods must be safe for concurrent use. internal/cache provides the
// two-tier production implementation.
type VerdictCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
}

// cachedVerdict is the serialized dynamic-stage outcome. Only fields the
// dynamic stage determines are stored: identity fields (Fn, ID, Pos, ...)
// are recomputed from the program on every run, and Provenance, Replays,
// and Elapsed describe the serving run, not the verdict.
type cachedVerdict struct {
	Verdict         Verdict `json:"verdict"`
	Reason          string  `json:"reason,omitempty"`
	Invocations     int     `json:"invocations"`
	Iterations      int64   `json:"iterations"`
	SchedulesTested int     `json:"schedules_tested"`
	Retries         int     `json:"retries"`
	TrapKind        string  `json:"trap_kind,omitempty"`
	// Replay-reduction counters: how the verdict's evidence was bounded.
	// A footprint-proved record keeps its SkippedFootprint count so warm
	// runs still report how much replay work the proof avoided; likewise a
	// static-proved record keeps SkippedProve (the skipped replays).
	SkippedStop      int `json:"skipped_stop,omitempty"`
	SkippedFootprint int `json:"skipped_footprint,omitempty"`
	SkippedProve     int `json:"skipped_prove,omitempty"`
}

// loopKey fingerprints one loop analysis under the active options.
func loopKey(prog *ir.Program, fnName string, loopIndex int, inst *instrument.Instrumented, opt *Options) string {
	return fingerprint.Loop(prog, fnName, loopIndex, inst, fingerprint.Inputs{
		Schedules:      opt.Schedules,
		Limits:         opt.Limits(),
		Retries:        opt.Retries,
		DebugSnapshots: opt.DebugSnapshots,
		StopAfter:      opt.StopAfter,
		NoFootprint:    opt.NoFootprint,
		NoProve:        opt.NoProve,
	}).String()
}

// encodeCachedVerdict serializes a freshly computed dynamic-stage outcome.
func encodeCachedVerdict(res *LoopResult) []byte {
	data, err := json.Marshal(cachedVerdict{
		Verdict:          res.Verdict,
		Reason:           res.Reason,
		Invocations:      res.Invocations,
		Iterations:       res.Iterations,
		SchedulesTested:  res.SchedulesTested,
		Retries:          res.Retries,
		TrapKind:         res.TrapKind,
		SkippedStop:      res.SkippedStop,
		SkippedFootprint: res.SkippedFootprint,
		SkippedProve:     res.SkippedProve,
	})
	if err != nil {
		return nil // never happens for this struct; a nil record is simply not stored
	}
	return data
}

// decodeCachedVerdict restores a stored outcome into res. It returns false
// — and leaves res usable for a fresh computation — when the record does
// not decode to a plausible verdict, so a corrupted or stale cache entry
// degrades to a miss rather than a wrong result.
func decodeCachedVerdict(data []byte, res *LoopResult) bool {
	var cv cachedVerdict
	if err := json.Unmarshal(data, &cv); err != nil {
		return false
	}
	if cv.Verdict < 0 || int(cv.Verdict) >= len(verdictNames) {
		return false
	}
	if cv.Verdict == Cancelled {
		// No writer stores Cancelled (a statement about a dead context, not
		// the program); a record claiming it is corrupt or forged.
		return false
	}
	res.Verdict = cv.Verdict
	res.Reason = cv.Reason
	res.Invocations = cv.Invocations
	res.Iterations = cv.Iterations
	res.SchedulesTested = cv.SchedulesTested
	res.Retries = cv.Retries
	res.TrapKind = cv.TrapKind
	res.SkippedStop = cv.SkippedStop
	res.SkippedFootprint = cv.SkippedFootprint
	res.SkippedProve = cv.SkippedProve
	return true
}

// EncodeLoopRecord serializes a completed loop outcome in the shared
// verdict-record schema (CacheRecordVersion) — the payload format of both
// the verdict cache and the write-ahead run journal. Returns nil for a
// result that must not be persisted.
func EncodeLoopRecord(res *LoopResult) []byte {
	if res.Verdict == Cancelled {
		// A cancelled loop is a statement about the caller's context, not
		// the program; persisting it would resume into a hole.
		return nil
	}
	return encodeCachedVerdict(res)
}

// DecodeLoopRecord restores a persisted loop outcome into res, reporting
// false — and leaving res untouched, usable for a fresh computation — when
// the record does not decode to a plausible verdict.
func DecodeLoopRecord(data []byte, res *LoopResult) bool {
	return decodeCachedVerdict(data, res)
}

// cacheableVerdict reports whether a computed outcome may be stored.
// Timeout-trapped outcomes depend on wall-clock speed, panic-trapped ones
// on analysis bugs, and cancelled ones on the caller's context — none is a
// deterministic function of the fingerprinted inputs, so they are
// recomputed every run. Everything else (commutative, non-commutative,
// not-executed, fault-failed, and budget-exhausted outcomes) is
// deterministic under the interpreter.
func cacheableVerdict(res *LoopResult) bool {
	if res.Verdict == Cancelled {
		return false
	}
	switch res.TrapKind {
	case sandbox.Timeout.String(), sandbox.Panic.String():
		return false
	}
	return true
}
