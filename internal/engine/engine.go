// Package engine is the concurrent analysis engine: it runs DCA's per-loop
// analyses — and, after each golden run, the per-schedule replays — across a
// bounded worker pool, while preserving report-identical output with the
// sequential core.Analyze path.
//
// Three properties make the fan-out sound:
//
//   - Replays never share mutable state. instrument.Loop clones the program
//     per loop, the interpreter allocates a fresh heap per execution, and
//     the shared inputs (original program, purity info, loop forests) are
//     read-only after construction.
//   - Determinism is recovered structurally, not by locking: loop results
//     are preallocated in enumeration order and sorted exactly like the
//     sequential path, and schedule outcomes are folded in schedule order
//     with the same first-failure early exit (core.AnalyzeLoopInto).
//   - Fault injection (a deliberately order-sensitive cross-run trip
//     counter) forces schedule replays inline on their loop's worker, so
//     trips are consumed in sequential order.
//
// The reference execution runs once per program (core.RunReference), and
// its per-loop evidence lets core.AnalyzeLoopInto decide most loops without
// any instrumented execution; only the rest fan out golden runs and
// replays.
//
// Every analysis is request-scoped: the caller's context flows into the
// reference execution, every loop's dynamic stage, and every offloaded
// schedule replay. Cancelling it stops scheduling new work, interrupts
// in-flight interpreter runs, and marks unfinished loops Cancelled — the
// report always comes back complete, never blocked on a dead client.
package engine

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/ir"
	"dca/internal/obs"
	"dca/internal/purity"
)

// Pool is a counting semaphore shared by every analysis a caller fans out:
// loop analyses and offloaded schedule replays all draw from the same
// bounded worker budget, so nesting cannot oversubscribe the host.
type Pool struct{ sem chan struct{} }

// NewPool sizes a worker pool; workers < 1 is clamped to 1.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

func (p *Pool) release() { <-p.sem }

// acquireCtx claims a slot, giving up when ctx is cancelled first. It
// reports whether the slot was actually acquired — callers that proceed
// without one must not release it.
func (p *Pool) acquireCtx(ctx context.Context) bool {
	select {
	case p.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// Cap returns the pool's total worker capacity.
func (p *Pool) Cap() int { return cap(p.sem) }

// InUse returns how many worker slots are held right now — a point-in-time
// load reading for monitoring endpoints.
func (p *Pool) InUse() int { return len(p.sem) }

// tryAcquire claims a slot only if one is free — the non-blocking form used
// for schedule offload, so a loop analysis holding a slot can never
// deadlock waiting for its own sub-tasks.
func (p *Pool) tryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// LoopKey identifies one loop within the analyzed program — the resume
// map's key. Loop enumeration is deterministic (function order, loop index),
// so the same program always yields the same keys.
type LoopKey struct {
	Fn    string
	Index int
}

// JournalSink receives one serialized verdict record per completed loop —
// the engine's view of a write-ahead run journal. Record must be safe for
// concurrent use; an error means the record was not made durable (the
// analysis itself continues).
type JournalSink interface {
	Record(fn string, index int, data []byte) error
}

// Options configures the concurrent engine.
type Options struct {
	// Core is the analysis configuration, identical to core.Analyze's.
	Core core.Options
	// Workers bounds concurrent executions; <= 0 means GOMAXPROCS.
	Workers int
	// Pool, when non-nil, shares a worker budget across several Analyze
	// calls (suite-level fan-out); Workers is ignored then.
	Pool *Pool
	// Journal, when non-nil, receives every completed loop verdict as it is
	// reached (core.EncodeLoopRecord schema), making the run resumable.
	Journal JournalSink
	// Resume maps loops to verdict records recovered from a previous run's
	// journal. A mapped loop skips its static and dynamic stage entirely and
	// reports the recovered outcome with ProvenanceJournaled; a record that
	// fails to decode falls through to a fresh analysis.
	Resume map[LoopKey][]byte
	// Only, when non-nil, restricts the analysis to the listed loops: loops
	// outside the set are neither analyzed nor reported. This is the fleet's
	// shard filter — a worker handed one batch of a program's loops runs the
	// reference execution once and analyzes just its share. nil means every
	// loop, exactly as before.
	Only map[LoopKey]bool
	// OnLoop, when non-nil, is called once per loop as its analysis
	// completes (including cached, journaled, and cancelled outcomes), from
	// the worker goroutine that finished it — completion order, not report
	// order. The result must be treated as read-only. Run registries use it
	// to stream per-loop verdicts while the analysis is still running.
	OnLoop func(res *core.LoopResult)
}

// Analyze runs DCA over every loop of every function, like core.Analyze,
// but fanned out over the worker pool. ctx (nil means Background) scopes
// the whole analysis: once it is cancelled no new loop or replay starts,
// in-flight interpreter runs are interrupted, and every unfinished loop
// reports Verdict Cancelled.
func Analyze(ctx context.Context, prog *ir.Program, opt Options) (*core.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	copt := opt.Core.Normalized()
	pool := opt.Pool
	if pool == nil {
		workers := opt.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		pool = NewPool(workers)
	}

	// Reference execution, once: its output is the behaviour every replay
	// must preserve, and its per-loop evidence decides loops outright. A
	// trap here is fatal for the whole analysis — including the trap a
	// cancelled ctx converts it into.
	ref, err := core.RunReference(ctx, prog, copt)
	if err != nil {
		return nil, err
	}

	pur := purity.Analyze(prog)
	rep := &core.Report{Prog: prog}

	// Enumerate loops up front, preallocating results in enumeration order.
	type loopJob struct {
		fn   *ir.Func
		loop *cfg.Loop
		res  *core.LoopResult
	}
	var jobs []loopJob
	for _, fn := range prog.Funcs {
		_, loops := cfg.LoopsOf(fn)
		for _, loop := range loops {
			if opt.Only != nil && !opt.Only[LoopKey{Fn: fn.Name, Index: loop.Index}] {
				continue
			}
			res := &core.LoopResult{
				Fn:    fn.Name,
				Index: loop.Index,
				ID:    loop.ID(),
				Pos:   loop.Header.Pos,
				Depth: loop.Depth,
			}
			rep.Loops = append(rep.Loops, res)
			jobs = append(jobs, loopJob{fn: fn, loop: loop, res: res})
		}
	}

	// Injection's trip counter is consumed in run order; keep schedule
	// replays inline (sequential within each loop) when it is armed. Loops
	// stay parallel: each loop arms its own independent injector.
	var mkExec func() core.ScheduleExecutor
	if copt.InjectionEnabled() {
		mkExec = func() core.ScheduleExecutor { return nil }
	} else {
		mkExec = func() core.ScheduleExecutor { return scheduleExecutor(ctx, pool) }
	}

	// Armed fault injection bypasses durability in both directions, exactly
	// like the verdict cache: injected traps are harness behaviour, not
	// reusable analysis results.
	journal, resume := opt.Journal, opt.Resume
	if copt.InjectionEnabled() {
		journal, resume = nil, nil
	}
	var journalErrOnce sync.Once

	// Bounded dispatch: at most pool.Cap() dispatcher goroutines pull jobs
	// from a shared index, instead of one goroutine per loop parked on the
	// semaphore. A suite with thousands of loops costs Cap() goroutines,
	// and a cancelled ctx stops the pull loop instead of leaving a spawned
	// backlog behind. Jobs whose slot acquisition loses to cancellation
	// still run AnalyzeLoopInto slot-less: its entry check marks the loop
	// Cancelled without doing any work, keeping the report complete.
	workers := pool.Cap()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				// A journaled loop skips both stages — no pool slot needed.
				// A record that fails to decode degrades to a fresh analysis.
				if data, ok := resume[LoopKey{Fn: j.fn.Name, Index: j.loop.Index}]; ok &&
					replayJournaled(&copt, data, j.res) {
					if opt.OnLoop != nil {
						opt.OnLoop(j.res)
					}
					continue
				}
				held := pool.acquireCtx(ctx)
				core.AnalyzeLoopInto(ctx, prog, j.fn, j.loop, pur, copt, ref, j.res, mkExec())
				if held {
					pool.release()
				}
				if journal != nil {
					if data := core.EncodeLoopRecord(j.res); data != nil {
						if err := journal.Record(j.res.Fn, j.res.Index, data); err != nil && copt.Trace != nil {
							// The journal's write errors are sticky; one event
							// says it all instead of one per remaining loop.
							journalErrOnce.Do(func() {
								copt.Trace.Emit(obs.Event{Stage: obs.StageJournal, Fn: j.res.Fn,
									LoopID: j.res.ID, Outcome: obs.OutcomeError, Err: err.Error()})
							})
						}
					}
				}
				if opt.OnLoop != nil {
					opt.OnLoop(j.res)
				}
			}
		}()
	}
	wg.Wait()

	sortLoops(rep)
	return rep, nil
}

// replayJournaled restores a journaled verdict into res, emitting the same
// trailing trace events a fresh analysis would (a journal hit, then the
// verdict). It reports false — leaving res untouched — when the record does
// not decode, so corruption degrades to recomputation.
func replayJournaled(opt *core.Options, data []byte, res *core.LoopResult) bool {
	start := time.Now()
	if !core.DecodeLoopRecord(data, res) {
		return false
	}
	res.Provenance = core.ProvenanceJournaled
	res.Elapsed = time.Since(start)
	if opt.Trace != nil {
		opt.Trace.Emit(obs.Event{Stage: obs.StageJournal, Fn: res.Fn, LoopID: res.ID,
			Outcome: obs.OutcomeHit})
		opt.Trace.Emit(obs.Event{Stage: obs.StageVerdict, Fn: res.Fn, LoopID: res.ID,
			Verdict: res.Verdict.String(), Reason: res.Reason, Trap: res.TrapKind,
			Provenance: res.Provenance, Retries: res.Retries,
			DurationMS: float64(res.Elapsed) / float64(time.Millisecond)})
	}
	return true
}

// scheduleExecutor offloads schedule replays onto free pool slots, running
// the rest inline on the loop's own worker. All offloadable replays start
// eagerly — the fold may discard outcomes past its first failure, trading
// a little wasted work for latency — while inline ones stay lazy, so they
// are skipped after an early exit just like the sequential path. A
// cancelled ctx stops the eager offload: remaining replays run inline,
// where the dynamic stage's own cancellation checks cut them short.
func scheduleExecutor(ctx context.Context, pool *Pool) core.ScheduleExecutor {
	return func(n int, runOne func(i int) core.ScheduleOutcome) func(i int) core.ScheduleOutcome {
		results := make([]core.ScheduleOutcome, n)
		done := make([]chan struct{}, n)
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if !pool.tryAcquire() {
				continue
			}
			ch := make(chan struct{})
			done[i] = ch
			go func(i int) {
				defer pool.release()
				defer close(ch)
				// runOne recovers its own panics into a Panic-trap outcome.
				results[i] = runOne(i)
			}(i)
		}
		return func(i int) core.ScheduleOutcome {
			if done[i] != nil {
				<-done[i]
				return results[i]
			}
			return runOne(i)
		}
	}
}

// sortLoops orders results exactly like core.Analyze: by function name,
// then loop index.
func sortLoops(rep *core.Report) {
	loops := rep.Loops
	sort.SliceStable(loops, func(i, j int) bool {
		if loops[i].Fn != loops[j].Fn {
			return loops[i].Fn < loops[j].Fn
		}
		return loops[i].Index < loops[j].Index
	})
}
