package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/ir"
)

// LoopRef names one loop of the analyzed program — the unit the registry
// orders.
type LoopRef struct {
	Fn    string
	Index int
}

// EnumerateLoops lists a program's loops in report order — sorted by
// function name, then loop index, exactly like core.Analyze's output. The
// registry seeds its source-ordered stream from this list.
func EnumerateLoops(prog *ir.Program) []LoopRef {
	var refs []LoopRef
	for _, fn := range prog.Funcs {
		for _, loop := range cfg.Loops(prog, fn) {
			refs = append(refs, LoopRef{Fn: fn.Name, Index: loop.Index})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Fn != refs[j].Fn {
			return refs[i].Fn < refs[j].Fn
		}
		return refs[i].Index < refs[j].Index
	})
	return refs
}

// maxRetainedRuns bounds how many finished runs the registry keeps for
// late /runs/{id} readers before the oldest are evicted. Running runs are
// never evicted.
const maxRetainedRuns = 256

// Registry tracks asynchronous analysis runs: each run is created with its
// full source-ordered loop list up front, collects per-loop verdicts in
// whatever order the engine's workers finish them, and releases them to
// subscribers in source order — so every event stream, no matter when it
// attaches, sees the same sequence.
type Registry struct {
	mu    sync.Mutex
	runs  map[string]*Run
	order []string // creation order, for finished-run eviction
	seq   int
}

// NewRegistry builds an empty run registry.
func NewRegistry() *Registry {
	return &Registry{runs: make(map[string]*Run)}
}

// NewRun registers a run over the given source-ordered loop list. runKey
// is the run-level fingerprint (fingerprint.Run); its prefix makes the
// handle self-describing without leaking the whole key into logs.
func (g *Registry) NewRun(runKey string, refs []LoopRef) *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	suffix := runKey
	if len(suffix) > 8 {
		suffix = suffix[:8]
	}
	r := &Run{
		id:       fmt.Sprintf("r%d-%s", g.seq, suffix),
		started:  time.Now(),
		expected: refs,
		slot:     make(map[LoopRef]int, len(refs)),
		buffered: make(map[LoopRef]core.LoopJSON),
		wake:     make(chan struct{}),
	}
	for i, ref := range refs {
		r.slot[ref] = i
	}
	g.runs[r.id] = r
	g.order = append(g.order, r.id)
	g.evictLocked()
	return r
}

// evictLocked drops the oldest finished runs beyond the retention bound.
func (g *Registry) evictLocked() {
	for len(g.runs) > maxRetainedRuns {
		evicted := false
		for i, id := range g.order {
			r := g.runs[id]
			if r == nil {
				g.order = append(g.order[:i], g.order[i+1:]...)
				evicted = true
				break
			}
			if r.Done() {
				delete(g.runs, id)
				g.order = append(g.order[:i], g.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything left is still running
		}
	}
}

// Get returns a run by ID, or nil.
func (g *Registry) Get(id string) *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs[id]
}

// Run is one asynchronous analysis: a source-ordered loop list filled in
// by out-of-order completions. Events release as the longest completed
// prefix grows, which makes every subscriber's stream identical to the
// final report's loop order.
type Run struct {
	id      string
	started time.Time

	mu       sync.Mutex
	expected []LoopRef
	slot     map[LoopRef]int           // ref -> source-order position
	buffered map[LoopRef]core.LoopJSON // completed, not yet released
	released []core.LoopJSON           // the streamed prefix, in source order
	report   *core.ReportJSON
	err      error
	done     bool
	wake     chan struct{} // closed and replaced on every state change
}

// ID returns the run handle.
func (r *Run) ID() string { return r.id }

// wakeLocked signals every parked subscriber and re-arms the channel.
func (r *Run) wakeLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// Complete records one loop's verdict. Out-of-order completions buffer
// until their source-order predecessors arrive; a duplicate completion
// keeps the first result and drops the rest, so subscribers see every loop
// exactly once.
func (r *Run) Complete(lj core.LoopJSON) {
	ref := LoopRef{Fn: lj.Fn, Index: lj.Index}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.slot[ref]
	if !ok || r.done {
		return // unknown loop, or a straggler after Finish
	}
	if i < len(r.released) {
		return // duplicate: already streamed, first result won
	}
	if _, dup := r.buffered[ref]; dup {
		return
	}
	r.buffered[ref] = lj
	// Release the longest completed prefix.
	for len(r.released) < len(r.expected) {
		next := r.expected[len(r.released)]
		lj, ok := r.buffered[next]
		if !ok {
			break
		}
		delete(r.buffered, next)
		r.released = append(r.released, lj)
	}
	r.wakeLocked()
}

// Finish seals the run with its merged report or error. Any loop that
// never completed (a cancelled run) stops the stream at the released
// prefix; subscribers then observe the terminal state.
func (r *Run) Finish(rep *core.ReportJSON, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.report, r.err, r.done = rep, err, true
	r.wakeLocked()
}

// Done reports whether the run has finished.
func (r *Run) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// Status is a point-in-time run snapshot — the /runs/{id} payload.
type Status struct {
	ID             string  `json:"id"`
	State          string  `json:"state"` // "running", "done", "error"
	TotalLoops     int     `json:"total_loops"`
	CompletedLoops int     `json:"completed_loops"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Error          string  `json:"error,omitempty"`
	// Report is the merged final report, present once State is "done".
	Report *core.ReportJSON `json:"report,omitempty"`
}

// Status snapshots the run.
func (r *Run) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:             r.id,
		State:          "running",
		TotalLoops:     len(r.expected),
		CompletedLoops: len(r.released) + len(r.buffered),
		ElapsedSeconds: time.Since(r.started).Seconds(),
	}
	if r.done {
		if r.err != nil {
			st.State, st.Error = "error", r.err.Error()
		} else {
			st.State, st.Report = "done", r.report
		}
	}
	return st
}

// Next blocks until event i is released, the run finishes, or ctx is
// cancelled. It returns the event and ok=true; or ok=false with done=true
// when the stream has ended (i is past the final prefix or the run erred)
// and done=false when ctx was cancelled first. Subscribers iterate i from
// 0; late subscribers replay the full released prefix, so every stream
// carries every verdict exactly once, in source order.
func (r *Run) Next(ctx context.Context, i int) (ev core.LoopJSON, ok, done bool) {
	for {
		r.mu.Lock()
		if i < len(r.released) {
			ev = r.released[i]
			r.mu.Unlock()
			return ev, true, false
		}
		if r.done {
			r.mu.Unlock()
			return core.LoopJSON{}, false, true
		}
		wake := r.wake
		r.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return core.LoopJSON{}, false, false
		}
	}
}

// Result blocks until the run finishes or ctx is cancelled, returning the
// merged report or the run's error.
func (r *Run) Result(ctx context.Context) (*core.ReportJSON, error) {
	for {
		r.mu.Lock()
		if r.done {
			rep, err := r.report, r.err
			r.mu.Unlock()
			return rep, err
		}
		wake := r.wake
		r.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
