package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace stages, in lifecycle order. Every analyzed loop emits a subset of
// these: a static-stage outcome, optionally a verdict-cache lookup,
// optionally a zero-iteration skip (stage prescreen) or a prover attempt,
// then the instrumented-program build, a golden run and zero or more
// schedule replays unless the reference run decided the loop, and always a
// final verdict. The whole-program reference execution emits one
// program-level event (empty LoopID) per analysis.
const (
	// StageReference: the uninstrumented whole-program reference execution.
	StageReference = "reference"
	// StageStatic: selection + separation outcome for one loop ("ok", or
	// the short-circuit verdict name).
	StageStatic = "static"
	// StagePrescreen: the reference run observed zero iterations of this
	// loop, so its dynamic stage was skipped and it reports NotExecuted
	// (outcome "skipped"). Other loops emit no prescreen event.
	StagePrescreen = "prescreen"
	// StageCache: verdict-cache lookup (outcome "hit" or "miss") or store
	// (outcome "error" when the disk write failed).
	StageCache = "cache"
	// StageProve: the static commutativity prover's attempt for one loop —
	// outcome "proved" (Reason names the closing argument) when the loop's
	// dynamic stage was skipped, "miss" (Reason lists the per-argument
	// obstructions) when it fell through to the dynamic stage.
	StageProve = "prove"
	// StageInstrument: building the instrumented program (outlining and
	// rewriting) of a loop on its way into the golden run — outcome "ok",
	// or "not-separable" when the build failed. DurationMS is the build
	// time. Loops decided earlier build nothing and emit no such event.
	StageInstrument = "instrument"
	// StageGolden: the instrumented golden run (outcome "ok" or "trap").
	StageGolden = "golden"
	// StageReplay: one permuted schedule replay (outcome "ok" or "trap").
	StageReplay = "replay"
	// StageVerdict: the loop's final verdict; always the loop's last event.
	StageVerdict = "verdict"
)

// Trace outcomes for the Outcome field (stages also use verdict names).
const (
	OutcomeOK      = "ok"
	OutcomeTrap    = "trap"
	OutcomeHit     = "hit"
	OutcomeMiss    = "miss"
	OutcomeSkipped = "skipped"
	OutcomeError   = "error"
	OutcomeProved  = "proved"
)

// Event is one structured record in a loop's analysis lifecycle. Fields
// are populated per stage; zero fields are omitted from JSONL. LoopID
// carries the high-cardinality identity that metrics deliberately drop.
type Event struct {
	// Time is an RFC3339Nano timestamp. Emitters may leave it empty; the
	// JSONL sink stamps it at write time. Metric sinks ignore it.
	Time string `json:"time,omitempty"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Fn and LoopID identify the loop ("" for program-level events).
	Fn     string `json:"fn,omitempty"`
	LoopID string `json:"loop,omitempty"`
	// Schedule names the permutation of a replay event.
	Schedule string `json:"schedule,omitempty"`
	// Outcome summarizes the stage: "ok", "trap", "hit", "miss", "skipped",
	// or a short-circuit verdict name for static events.
	Outcome string `json:"outcome,omitempty"`
	// Trap is the sandbox trap kind ("fault", "budget", "timeout", "panic")
	// when the stage trapped.
	Trap string `json:"trap,omitempty"`
	// Verdict and Reason mirror the loop result on verdict events.
	Verdict string `json:"verdict,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Provenance is "computed", "cached", "footprint-proved" or
	// "static-proved" on verdict events.
	Provenance string `json:"provenance,omitempty"`
	// Retries counts doubled-budget retries the stage consumed.
	Retries int `json:"retries,omitempty"`
	// DurationMS is the stage's wall-clock cost in milliseconds.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Err carries the underlying error text of a trap.
	Err string `json:"err,omitempty"`
}

// Sink consumes trace events. Implementations must be safe for concurrent
// use: the engine emits replay events from multiple workers at once.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(Event)

// Emit calls f.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// Multi fans one event out to several sinks in order.
type Multi []Sink

// Emit forwards ev to every sink.
func (m Multi) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// JSONL writes one JSON object per event, newline-delimited — the
// `dca analyze -trace` sink. Writes are serialized under a mutex; the
// first write error is retained and subsequent events are dropped.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL creates a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit writes one event, stamping Time if the emitter left it empty.
func (s *JSONL) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if ev.Time == "" {
		ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	s.err = s.enc.Encode(ev)
}

// Err returns the first write error, if any.
func (s *JSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Collector buffers events in memory — the test and tooling sink.
type Collector struct {
	mu  sync.Mutex
	evs []Event
}

// Emit appends ev.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

// Events returns a snapshot copy of everything collected so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.evs))
	copy(out, c.evs)
	return out
}
