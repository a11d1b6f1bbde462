// Package core is the paper's primary contribution: Dynamic Commutativity
// Analysis. For every loop of a program it runs the static stage (selection,
// iterator/payload separation) and the dynamic stage (outlining and
// instrumentation, then a golden execution plus permuted executions under a
// set of schedules, with live-out verification), and reports a per-loop
// Verdict. One uninstrumented reference run per program decides many loops
// right after their separation, before any instrumented program is built:
// those it saw run zero iterations, proved by the static prover, or touch
// disjoint heap cells in every iteration.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dca/internal/cfg"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/iterrec"
	"dca/internal/obs"
	"dca/internal/prove"
	"dca/internal/purity"
	"dca/internal/sandbox"
	"dca/internal/source"
)

// Verdict classifies one loop after analysis.
type Verdict int

// Verdicts. Commutative is DCA's "potentially parallelizable".
const (
	// Commutative: every tested permutation preserved all live-out
	// snapshots and the program output.
	Commutative Verdict = iota
	// NonCommutative: some permutation changed a live-out or faulted.
	NonCommutative
	// ExcludedIO: the loop performs I/O (directly or through a callee) and
	// is excluded during the selection step of the static stage.
	ExcludedIO
	// NotSeparable: iterator/payload separation or outlining failed; the
	// loop is outside the prototype's transformable class.
	NotSeparable
	// NotExecuted: the workload never reached the loop, so the dynamic
	// stage has no evidence.
	NotExecuted
	// Failed: the instrumented golden run diverged from the original
	// program, faulted, or the analysis itself panicked; the loop is
	// reported untestable while the rest of the suite continues.
	Failed
	// ResourceExhausted: a dynamic-stage execution ran out of its step,
	// heap, output, or wall-clock budget even after the bounded
	// doubled-budget retry. Unlike a fault this says nothing about the
	// program: the analysis simply could not afford the evidence.
	ResourceExhausted
	// Cancelled: the caller's context was cancelled before this loop's
	// analysis could finish (client disconnect, server drain, Ctrl-C).
	// Says nothing about the program; never cached.
	Cancelled
)

var verdictNames = [...]string{"commutative", "non-commutative", "excluded-io", "not-separable", "not-executed", "failed", "resource-exhausted", "cancelled"}

func (v Verdict) String() string { return verdictNames[v] }

// IsParallelizable reports whether DCA proposes the loop for
// parallelization.
func (v Verdict) IsParallelizable() bool { return v == Commutative }

// LoopResult is the analysis outcome for one loop.
type LoopResult struct {
	Fn      string
	Index   int // loop index within the function (cfg.FindLoops order)
	ID      string
	Pos     source.Pos
	Depth   int
	Verdict Verdict
	Reason  string
	// Invocations/Iterations count the loop's entries from outside and its
	// payload executions, observed by the reference run for a loop it
	// decides and by the golden run otherwise (the two agree).
	Invocations int
	Iterations  int64
	// SchedulesTested counts permutation schedules that completed.
	SchedulesTested int
	// Retries counts doubled-budget retries spent during the dynamic stage.
	Retries int
	// TrapKind is the sandbox classification ("fault", "budget", "timeout",
	// "panic") behind a trap-derived verdict; "" when no trap fired.
	TrapKind string
	// Provenance records how the dynamic-stage outcome was obtained:
	// ProvenanceComputed (analyzed in this run), ProvenanceCached (served
	// from the verdict cache), ProvenanceFootprint (decided from the
	// reference run's footprint), or ProvenanceProved (static proof).
	Provenance string
	// Replays counts the instrumented executions this analysis consumed —
	// the golden run plus every schedule replay folded into the verdict
	// (doubled-budget retries are tracked separately in Retries). A cached
	// outcome consumes none, and neither does a loop decided from the
	// reference run (not executed, static-proved, or footprint-proved).
	Replays int
	// SkippedStop counts schedule replays the sequential stopping rule
	// (Options.StopAfter) skipped after enough consecutive agreements.
	SkippedStop int
	// SkippedFootprint counts schedule replays the footprint fast path
	// skipped: the reference run showed the loop's iterations touch disjoint
	// memory, so every permutation is behaviour-preserving by construction.
	SkippedFootprint int
	// SkippedProve counts the schedule replays the static commutativity
	// prover skipped by closing a symbolic proof before the dynamic stage:
	// every permuted replay could only reconfirm the proof.
	SkippedProve int
	// DurStatic/DurGolden/DurReplay split the loop's analysis wall-clock
	// into the static stage (separation, plus outlining and instrumentation
	// for a loop that reaches its golden run), the golden run, and the
	// schedule replays. Diagnostic only, like Elapsed.
	DurStatic time.Duration
	DurGolden time.Duration
	DurReplay time.Duration
	// Elapsed is the wall-clock time this loop's analysis took, including a
	// cache hit's lookup time. Diagnostic only: it is not part of the
	// deterministic verdict and never compared across runs.
	Elapsed time.Duration
}

// Report is the whole-program analysis result.
type Report struct {
	Prog  *ir.Program
	Loops []*LoopResult
}

// Count returns how many loops carry the given verdict.
func (r *Report) Count(v Verdict) int {
	n := 0
	for _, l := range r.Loops {
		if l.Verdict == v {
			n++
		}
	}
	return n
}

// Commutative returns the loops DCA found commutative.
func (r *Report) Commutative() []*LoopResult {
	var out []*LoopResult
	for _, l := range r.Loops {
		if l.Verdict == Commutative {
			out = append(out, l)
		}
	}
	return out
}

// Replays returns the total instrumented executions consumed across all
// loops — the dynamic-stage work a warm verdict cache avoids.
func (r *Report) Replays() int {
	n := 0
	for _, l := range r.Loops {
		n += l.Replays
	}
	return n
}

// ProvedLoops returns how many loops the static commutativity prover
// decided without any schedule replay (provenance ProvenanceProved).
func (r *Report) ProvedLoops() int {
	n := 0
	for _, l := range r.Loops {
		if l.Provenance == ProvenanceProved {
			n++
		}
	}
	return n
}

// SkippedProveRuns totals the schedule replays the static prover skipped
// across the report, including counts preserved through cached records.
func (r *Report) SkippedProveRuns() int {
	n := 0
	for _, l := range r.Loops {
		n += l.SkippedProve
	}
	return n
}

// CachedLoops returns how many loops were served from the verdict cache.
func (r *Report) CachedLoops() int {
	n := 0
	for _, l := range r.Loops {
		if l.Provenance == ProvenanceCached {
			n++
		}
	}
	return n
}

// Result returns the outcome for a specific loop, or nil.
func (r *Report) Result(fn string, index int) *LoopResult {
	for _, l := range r.Loops {
		if l.Fn == fn && l.Index == index {
			return l
		}
	}
	return nil
}

func (r *Report) String() string {
	var b strings.Builder
	for _, l := range r.Loops {
		fmt.Fprintf(&b, "%-40s %-16s", l.ID, l.Verdict)
		if l.Reason != "" {
			fmt.Fprintf(&b, " (%s)", l.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Options configures the analysis.
type Options struct {
	// Schedules are the permutations tested against the golden order;
	// defaults to dcart.DefaultSchedules().
	Schedules []dcart.Schedule
	// MaxSteps bounds each program execution (default 200M).
	MaxSteps int64
	// Timeout bounds each program execution's wall-clock time (0 = none).
	Timeout time.Duration
	// MaxHeapObjects / MaxOutput bound each execution's heap allocations
	// and program output bytes (0 = none).
	MaxHeapObjects int64
	MaxOutput      int64
	// Retries is how many times a budget- or timeout-trapped execution is
	// retried at a doubled budget before the loop degrades to
	// ResourceExhausted. Default 1; negative disables retries.
	Retries int
	// StopAfter, when positive, is the sequential stopping rule: once
	// StopAfter consecutive schedules agree with the golden run, the
	// remaining schedules are skipped and the loop reports Commutative.
	// It trades evidence for time — a skipped schedule could have diverged —
	// so it participates in the verdict fingerprint. 0 tests every schedule.
	StopAfter int
	// NoFootprint turns off every decision from the reference run and
	// restores the per-loop golden-run path: every loop that reaches the
	// dynamic stage runs its golden run, proved loops included. By default
	// the one reference run of the program records, for every loop at once,
	// its invocation and iteration counts and every heap cell each iteration
	// reads and writes. A loop is then decided without any instrumented
	// execution when it ran zero iterations (NotExecuted), when the prover
	// closed a proof (Commutative, ProvenanceProved), or when no cell written
	// in one iteration was touched by another iteration of the same
	// invocation — reordering iterations then cannot change any observable
	// behaviour (Commutative, ProvenanceFootprint). Verdicts are identical
	// either way, so NoFootprint is the differential oracle for those
	// decisions.
	NoFootprint bool
	// NoProve disables the static commutativity prover. By default the
	// prover (internal/prove) runs between the static and dynamic stages and
	// attempts a symbolic proof — affine-disjoint accesses, pure payloads
	// over disjoint footprints, or closed reduction/min-max/histogram
	// recurrences — that every iteration order is behaviour-preserving. A
	// proof cannot witness coverage — a never-exercised loop must keep its
	// NotExecuted verdict — so the reference run supplies it: a proved loop
	// whose payload ran reports Commutative with provenance ProvenanceProved
	// and runs no instrumented execution. Under NoFootprint, or for a loop
	// the reference run cannot vouch for, the golden run is the coverage
	// witness and only the schedule replays are skipped. A failed proof
	// falls through unchanged. Disabling the prover turns the dynamic stage
	// back into a differential oracle for it: verdicts are identical either
	// way, the prover only removes work.
	NoProve bool
	// Inject deterministically trips a trap inside the instrumented
	// executions — the test harness for the degradation paths themselves.
	// InjectFn/InjectLoop restrict it to one loop; InjectFn == "" applies
	// it to every loop. The uninstrumented reference run is never injected.
	Inject     sandbox.Inject
	InjectFn   string
	InjectLoop int
	// DebugSnapshots keeps the full string serialization of every live-out
	// snapshot alongside its digest, so a live-out divergence reason carries
	// the actual differing serializations. Costs O(heap) per invocation.
	DebugSnapshots bool
	// Cache, when non-nil, is consulted before each loop's dynamic stage
	// and updated after it: a hit under the loop's fingerprint serves the
	// stored verdict without running the golden run or any replay. Fault
	// injection bypasses the cache entirely. See internal/fingerprint for
	// the key contract and internal/cache for the production store.
	Cache VerdictCache
	// Trace, when non-nil, receives one structured event per stage of
	// every loop's analysis lifecycle (static outcome, cache lookup,
	// zero-iteration skip, prover attempt, instrumented-program build,
	// golden run, each schedule replay, final verdict) plus one
	// program-level event per reference execution. The sink must be safe
	// for concurrent use; it observes the analysis and must never influence
	// it. Not part of the fingerprinted inputs.
	Trace obs.Sink
}

// emit sends one trace event to the configured sink, if any.
func (o *Options) emit(ev obs.Event) {
	if o.Trace != nil {
		o.Trace.Emit(ev)
	}
}

func (o *Options) normalize() {
	if len(o.Schedules) == 0 {
		o.Schedules = dcart.DefaultSchedules()
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 200_000_000
	}
	switch {
	case o.Retries == 0:
		o.Retries = 1
	case o.Retries < 0:
		o.Retries = 0
	}
}

// Normalized returns the options with defaults filled in — the form the
// analysis entry points (and the concurrent engine) operate on.
func (o Options) Normalized() Options {
	o.normalize()
	return o
}

// Limits converts the per-execution budgets into sandbox limits.
func (o *Options) Limits() sandbox.Limits {
	return sandbox.Limits{
		MaxSteps:       o.MaxSteps,
		MaxHeapObjects: o.MaxHeapObjects,
		MaxOutput:      o.MaxOutput,
		Timeout:        o.Timeout,
	}
}

// InjectorFor arms the configured injection for one loop's dynamic stage,
// or returns nil when injection is off or aimed at a different loop.
func (o *Options) InjectorFor(fn string, loop int) *sandbox.Injector {
	if o.Inject.AtStep == 0 && o.Inject.AtIntrinsic == 0 {
		return nil
	}
	if o.InjectFn != "" && (o.InjectFn != fn || o.InjectLoop != loop) {
		return nil
	}
	return sandbox.NewInjector(o.Inject)
}

// InjectionEnabled reports whether any deterministic fault injection is
// configured. The engine runs schedule replays inline (sequentially) in
// that case so the injector's cross-run trip counter is consumed in the
// same order as the sequential path.
func (o *Options) InjectionEnabled() bool {
	return o.Inject.AtStep != 0 || o.Inject.AtIntrinsic != 0
}

// Analyze runs DCA over every loop of every function in the program.
func Analyze(prog *ir.Program, opt Options) (*Report, error) {
	opt.normalize()
	rep := &Report{Prog: prog}
	ref, err := RunReference(nil, prog, opt, false)
	if err != nil {
		return nil, err
	}
	pur := purity.Analyze(prog)

	for _, fn := range prog.Funcs {
		for _, loop := range cfg.Loops(prog, fn) {
			res := &LoopResult{
				Fn:    fn.Name,
				Index: loop.Index,
				ID:    loop.ID(),
				Pos:   loop.Header.Pos,
				Depth: loop.Depth,
			}
			rep.Loops = append(rep.Loops, res)
			AnalyzeLoopInto(context.Background(), prog, fn, loop, pur, opt, ref, res, nil)
		}
	}
	sort.SliceStable(rep.Loops, func(i, j int) bool {
		if rep.Loops[i].Fn != rep.Loops[j].Fn {
			return rep.Loops[i].Fn < rep.Loops[j].Fn
		}
		return rep.Loops[i].Index < rep.Loops[j].Index
	})
	return rep, nil
}

// AnalyzeLoop runs DCA on a single loop of the named function.
func AnalyzeLoop(prog *ir.Program, fnName string, loopIndex int, opt Options) (*LoopResult, error) {
	opt.normalize()
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("core: no function %q", fnName)
	}
	loops := cfg.Loops(prog, fn)
	if loopIndex < 0 || loopIndex >= len(loops) {
		return nil, fmt.Errorf("core: %s has %d loops", fnName, len(loops))
	}
	loop := loops[loopIndex]
	ref, err := RunReference(nil, prog, opt, false)
	if err != nil {
		return nil, err
	}
	res := &LoopResult{Fn: fnName, Index: loopIndex, ID: loop.ID(), Pos: loop.Header.Pos, Depth: loop.Depth}
	AnalyzeLoopInto(context.Background(), prog, fn, loop, purity.Analyze(prog), opt, ref, res, nil)
	return res, nil
}

// Reference is what one uninstrumented run of the whole program observed:
// its output, which every instrumented run must reproduce, on request its
// dependence profile, and — unless Options.NoFootprint is set — each loop's
// invocation and iteration counts and whether its iterations touched
// disjoint heap cells. AnalyzeLoopInto decides loops from this evidence
// without any instrumented execution.
type Reference struct {
	// Out is the program's output.
	Out string
	// Steps is the number of instructions the run retired.
	Steps int64
	// Profile is the run's dependence profile (DepProf, DiscoPoP and
	// Table IV's coverage read it); nil unless RunReference was asked for it.
	Profile  *depprof.Profile
	evidence *depprof.Builder
}

// RunReference runs prog once, uninstrumented, on the VM under opt's
// budgets, with one observer (depprof.Builder) recording every loop at
// once unless opt.NoFootprint is set. profile asks the same observer for
// the program's dependence profile too, so a program executes
// uninstrumented once; under NoFootprint the observer then records the
// evidence, but nothing reads it. It emits one reference trace event, ok or
// trap. A trap is fatal for the whole analysis — with no reference
// behaviour there is nothing to compare any loop's runs against — and so is
// a cancelled ctx (nil means Background), which the error then wraps.
func RunReference(ctx context.Context, prog *ir.Program, opt Options, profile bool) (*Reference, error) {
	opt.normalize()
	start := time.Now()
	var out strings.Builder
	cfg := interp.Config{Out: &out}
	var b *depprof.Builder
	if profile || !opt.NoFootprint {
		b = depprof.NewBuilder(prog, profile)
		cfg.Tracer = b
	}
	oc := sandbox.Run(ctx, prog, cfg, opt.Limits(), nil)
	ev := obs.Event{Stage: obs.StageReference, Outcome: obs.OutcomeOK,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond)}
	if !oc.OK() {
		ev.Outcome, ev.Trap, ev.Err = obs.OutcomeTrap, oc.Trap.Kind.String(), oc.Trap.Err.Error()
		opt.emit(ev)
		if cancelled(ctx) {
			return nil, fmt.Errorf("core: analysis cancelled during reference execution: %w", context.Cause(ctx))
		}
		return nil, fmt.Errorf("core: reference execution failed (%s): %w", oc.Trap.Kind, oc.Trap)
	}
	opt.emit(ev)
	ref := &Reference{Out: out.String(), Steps: oc.Result.Steps}
	if profile {
		ref.Profile = b.Profile(ref.Steps, false)
	}
	if !opt.NoFootprint {
		ref.evidence = b
	}
	return ref, nil
}

// observed returns the reference run's evidence for one loop, counting its
// iterations at the payload-entry block sep chose. sep must be computed on
// the analyzed program itself (instrument.Separate), whose blocks the
// reference run recorded. ok is false when the run recorded nothing
// (NoFootprint) or the loop was re-entered while active: a recursive loop
// is only ever decided by its golden run.
func (r *Reference) observed(sep *iterrec.Separation) (run depprof.LoopRun, ok bool) {
	if r.evidence == nil {
		return run, false
	}
	run, ok = r.evidence.Loop(sep.Fn, sep.Loop.Index, sep.B0.Index)
	return run, ok && !run.Reentered
}

// payloadWritesEnv reports whether the payload assigns a local it shares
// with other iterations through the environment object. The reference run
// cannot see such a local's cross-iteration flow: it lives in a register
// there, and in a heap field only in the instrumented program.
func payloadWritesEnv(sep *iterrec.Separation) bool {
	for _, l := range sep.EnvLocals {
		if sep.PayloadDefSet[l] {
			return true
		}
	}
	return false
}

// runCell executes the instrumented program under a fresh runtime from
// mkRT inside a sandbox cell, retrying Budget and Timeout traps at doubled
// limits up to opt.Retries times. ctx cancellation aborts the execution
// mid-run (surfacing as a Timeout trap) and suppresses retries. It returns
// the last attempt's runtime, captured output, trap (nil on success), and
// the retries spent.
func runCell(ctx context.Context, prog *ir.Program, mkRT func() *dcart.Runtime, opt Options, inj *sandbox.Injector) (*dcart.Runtime, string, *sandbox.Trap, int) {
	var rt *dcart.Runtime
	var out strings.Builder
	oc, retries := sandbox.RunRetry(ctx, prog, func() interp.Config {
		rt = mkRT()
		out.Reset()
		return interp.Config{Out: &out, Runtime: rt}
	}, opt.Limits(), inj, opt.Retries)
	return rt, out.String(), oc.Trap, retries
}

// cancelled reports whether the analysis context has been cancelled.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// markCancelled records a context cancellation as the loop's outcome.
func markCancelled(ctx context.Context, res *LoopResult) {
	res.Verdict = Cancelled
	res.Reason = "analysis cancelled: " + context.Cause(ctx).Error()
}

// newRuntime builds a replay runtime for one schedule under the options'
// snapshot mode.
func newRuntime(s dcart.Schedule, opt *Options) *dcart.Runtime {
	rt := dcart.NewRuntime(s)
	rt.DebugSnapshots = opt.DebugSnapshots
	return rt
}

// ScheduleOutcome is the raw result of one permuted replay: the runtime
// (snapshots, counters), the captured program output, the trap if the run
// ended abnormally, and the doubled-budget retries it consumed. Fields are
// unexported — an executor only transports outcomes from runOne back to the
// fold; interpretation stays in AnalyzeLoopInto.
type ScheduleOutcome struct {
	rt      *dcart.Runtime
	out     string
	trap    *sandbox.Trap
	retries int
}

// ScheduleExecutor abstracts how a loop's n schedule replays are executed.
// It receives runOne (execute schedule i, any order, safe to call
// concurrently) and returns a getter the verdict fold calls for i = 0..n-1
// IN ORDER, stopping at the first failure. The sequential executor runs
// each schedule lazily inside get — never executing schedules past the
// first failure, exactly like the pre-executor code; a parallel executor
// may start all n eagerly and let get block on completion. Either way the
// fold consumes outcomes in schedule order, so verdict, reason,
// SchedulesTested, and Retries are identical across executors.
type ScheduleExecutor func(n int, runOne func(i int) ScheduleOutcome) (get func(i int) ScheduleOutcome)

// sequentialExecutor runs each schedule on demand, in fold order.
func sequentialExecutor(_ int, runOne func(i int) ScheduleOutcome) func(i int) ScheduleOutcome {
	return runOne
}

// AnalyzeLoopInto runs the static and dynamic stages for one loop and
// writes the verdict into res. It is the shared kernel of the sequential
// Analyze path and the concurrent engine:
//
//   - ctx cancellation aborts the analysis: the loop reports Cancelled
//     (a context-level outcome, never cached) and in-flight replays stop
//     at the interpreter's next cancellation check. ctx may be nil.
//   - ref is the program's reference run (RunReference). Its per-loop
//     evidence decides three kinds of loop after the static stage, without
//     building or running any instrumented program: zero iterations
//     (NotExecuted), a static proof (Commutative, static-proved), and
//     iteration-disjoint heap footprints (Commutative, footprint-proved).
//     The static stage (I/O exclusion, separation) always runs first — a
//     never-executed I/O loop must still report ExcludedIO and a
//     non-separable one NotSeparable. Outlining and instrumentation run
//     only for a loop that reaches its golden run.
//   - exec chooses how schedule replays execute (nil = sequential).
func AnalyzeLoopInto(ctx context.Context, prog *ir.Program, fn *ir.Func, loop *cfg.Loop, pur *purity.Info, opt Options, ref *Reference, res *LoopResult, exec ScheduleExecutor) {
	start := time.Now()
	// Registered first so it runs last: the verdict event carries whatever
	// the panic recovery below settled on.
	defer func() {
		res.Elapsed = time.Since(start)
		opt.emit(obs.Event{Stage: obs.StageVerdict, Fn: res.Fn, LoopID: res.ID,
			Verdict: res.Verdict.String(), Reason: res.Reason, Trap: res.TrapKind,
			Provenance: res.Provenance, Retries: res.Retries,
			DurationMS: float64(res.Elapsed) / float64(time.Millisecond)})
	}()
	// A panic anywhere in this loop's static or dynamic stage (including
	// instrumentation) marks the loop Failed; the suite run continues.
	defer func() {
		if r := recover(); r != nil {
			res.Verdict = Failed
			res.TrapKind = sandbox.Panic.String()
			res.Reason = fmt.Sprintf("internal panic: %v", r)
		}
	}()
	res.Provenance = ProvenanceComputed

	// Cancelled before any work: report without paying for the static
	// stage. The bounded engine dispatch drains its remaining jobs here.
	if cancelled(ctx) {
		markCancelled(ctx, res)
		return
	}

	// --- Selection: exclude I/O loops (§IV-E). ---
	if pur.LoopDoesIO(loop.Blocks) {
		res.Verdict = ExcludedIO
		res.Reason = "loop performs I/O directly or through a callee"
		opt.emit(obs.Event{Stage: obs.StageStatic, Fn: res.Fn, LoopID: res.ID, Outcome: ExcludedIO.String()})
		return
	}

	// --- Static stage: separate the loop on the program itself. Separation
	// alone decides transformability; the instrumented program is built
	// only on the way into the golden run (instrumentLoop). ---
	sstart := time.Now()
	sep, err := instrument.Separate(prog, fn.Name, loop.Index)
	res.DurStatic = time.Since(sstart)
	if err != nil {
		res.Verdict = NotSeparable
		res.Reason = trimPrefixes(err.Error())
		opt.emit(obs.Event{Stage: obs.StageStatic, Fn: res.Fn, LoopID: res.ID,
			Outcome: NotSeparable.String(), Err: res.Reason})
		return
	}
	opt.emit(obs.Event{Stage: obs.StageStatic, Fn: res.Fn, LoopID: res.ID, Outcome: obs.OutcomeOK})

	inj := opt.InjectorFor(fn.Name, loop.Index)

	// --- Incremental analysis: consult the verdict cache. The fingerprint
	// covers every input that can reach the verdict (program IR, separation,
	// schedules, budgets — see internal/fingerprint), so a hit is the exact
	// outcome the dynamic stage below would recompute. Armed fault injection
	// bypasses the cache in both directions: injected traps are harness
	// behaviour, not reusable analysis results.
	var key string
	if opt.Cache != nil && inj == nil {
		key = loopKey(prog, fn.Name, loop.Index, sep, &opt)
		if data, ok := opt.Cache.Get(key); ok && decodeCachedVerdict(data, res) {
			res.Provenance = ProvenanceCached
			opt.emit(obs.Event{Stage: obs.StageCache, Fn: res.Fn, LoopID: res.ID, Outcome: obs.OutcomeHit})
			return
		}
		opt.emit(obs.Event{Stage: obs.StageCache, Fn: res.Fn, LoopID: res.ID, Outcome: obs.OutcomeMiss})
	}

	// --- Reference evidence: the reference run counted this loop's
	// invocations and iterations and recorded its footprint. Armed fault
	// injection bypasses it, as it bypasses the prover and the cache: an
	// injected trap is dynamic-stage harness behaviour no decision from the
	// reference run may suppress.
	var seen depprof.LoopRun
	decidable := false
	if inj == nil {
		seen, decidable = ref.observed(sep.Sep)
	}

	// --- Zero iterations: the workload never runs this loop's payload, so
	// the golden run could only confirm it. (After the static stage on
	// purpose — selection and separability verdicts must not depend on
	// coverage — and BEFORE the prover: execution evidence outranks a
	// symbolic proof, so a never-exercised loop reports NotExecuted with or
	// without the prover, and the proof attempt is saved.)
	if decidable && seen.Iterations == 0 {
		if cancelled(ctx) {
			markCancelled(ctx, res)
			return
		}
		res.Verdict = NotExecuted
		res.Reason = "workload never executes this loop's payload"
		res.Invocations = int(seen.Invocations)
		opt.emit(obs.Event{Stage: obs.StagePrescreen, Fn: res.Fn, LoopID: res.ID, Outcome: obs.OutcomeSkipped})
	} else {
		proved, ok := proveLoop(ctx, prog, fn, loop, pur, &opt, res, inj)
		if !ok {
			return
		}
		switch {
		case decidable && (proved || seen.Disjoint && !payloadWritesEnv(sep.Sep)):
			// A proof quantifies over iteration orders and the reference
			// run shows the workload exercises the payload; or the
			// reference run saw no heap cell shared between two iterations
			// of one invocation, so reordering them cannot change any
			// observable behaviour. Either way every instrumented run could
			// only reconfirm the verdict. Cancellation still wins: a
			// cancelled analysis reports Cancelled for every loop whose
			// verdict had not landed, and caches nothing.
			if cancelled(ctx) {
				markCancelled(ctx, res)
				return
			}
			res.Verdict = Commutative
			res.Invocations = int(seen.Invocations)
			res.Iterations = seen.Iterations
			if proved {
				res.Provenance = ProvenanceProved
				res.SkippedProve = len(opt.Schedules)
			} else {
				res.Provenance = ProvenanceFootprint
				res.SkippedFootprint = len(opt.Schedules)
			}
		default:
			if inst := instrumentLoop(prog, sep, &opt, res); inst != nil {
				dynamicStage(ctx, inst, &opt, ref.Out, res, inj, exec, proved)
			}
		}
	}

	// Store the freshly computed outcome for future runs. Reached only on
	// normal completion: a panic unwinds past this into the recover above,
	// so a half-written result can never be cached — and a cancelled
	// analysis is a statement about the context, not the program, so it is
	// never stored either.
	if key != "" && !cancelled(ctx) && cacheableVerdict(res) {
		if data := encodeCachedVerdict(res); data != nil {
			opt.Cache.Put(key, data)
		}
	}
}

// proveLoop attempts the static commutativity prover's symbolic proof
// that every iteration order is behaviour-preserving (affine-disjoint
// accesses, pure payloads over disjoint footprints, or closed
// reduction/min-max/histogram recurrences). NoProve and armed fault
// injection skip it: injected traps are dynamic-stage harness behaviour a
// proof would silently suppress. A proved verdict is cached like a dynamic
// one (NoProve participates in the fingerprint, so proved and
// dynamically-tested records never alias). ok is false when a cancellation
// landed with the proof: the loop is then marked Cancelled and must not
// report the proof.
func proveLoop(ctx context.Context, prog *ir.Program, fn *ir.Func, loop *cfg.Loop, pur *purity.Info, opt *Options, res *LoopResult, inj *sandbox.Injector) (proved, ok bool) {
	if opt.NoProve || inj != nil {
		return false, true
	}
	pstart := time.Now()
	pr := prove.Loop(prog, fn.Name, loop.Index, pur)
	dur := float64(time.Since(pstart)) / float64(time.Millisecond)
	if !pr.Proved {
		opt.emit(obs.Event{Stage: obs.StageProve, Fn: res.Fn, LoopID: res.ID,
			Outcome: obs.OutcomeMiss, Reason: pr.Reason, DurationMS: dur})
		return false, true
	}
	// Cancellation wins even over an already-closed proof: the engine's
	// contract is that a cancelled analysis reports Cancelled for every loop
	// whose verdict had not landed, and caches nothing.
	if cancelled(ctx) {
		markCancelled(ctx, res)
		return false, false
	}
	opt.emit(obs.Event{Stage: obs.StageProve, Fn: res.Fn, LoopID: res.ID,
		Outcome: obs.OutcomeProved, Reason: pr.Argument, DurationMS: dur})
	return true, true
}

// instrumentLoop builds the instrumented program of a loop whose golden run
// must execute from the loop's separation sep, so the loop is separated
// once, and adds the build time to res.DurStatic. A build that fails marks
// the loop NotSeparable and returns nil. Separation already rejects every
// other loop instrument.Loop rejects, so only a malformed outlined or
// rewritten function can fail here.
func instrumentLoop(prog *ir.Program, sep *instrument.Separated, opt *Options, res *LoopResult) *instrument.Instrumented {
	start := time.Now()
	inst, err := instrument.Build(prog, sep)
	d := time.Since(start)
	res.DurStatic += d
	ev := obs.Event{Stage: obs.StageInstrument, Fn: res.Fn, LoopID: res.ID, Outcome: obs.OutcomeOK,
		DurationMS: float64(d) / float64(time.Millisecond)}
	if err != nil {
		res.Verdict = NotSeparable
		res.Reason = trimPrefixes(err.Error())
		ev.Outcome, ev.Err = NotSeparable.String(), res.Reason
	}
	opt.emit(ev)
	if err != nil {
		return nil
	}
	return inst
}

// dynamicStage runs the golden execution and the permuted replays for one
// instrumented loop and writes the verdict into res. Split from
// AnalyzeLoopInto so the cache layer wraps exactly the replay work and
// nothing else. proved reports that the static prover already closed a
// commutativity proof the reference run could not confirm (NoFootprint, a
// re-entered loop, armed injection): the golden run executes as the
// coverage witness, but every schedule replay is skipped.
func dynamicStage(ctx context.Context, inst *instrument.Instrumented, optp *Options, refOut string, res *LoopResult, inj *sandbox.Injector, exec ScheduleExecutor, proved bool) {
	opt := *optp

	// --- Dynamic stage: golden run. ---
	gstart := time.Now()
	golden, goldenOut, trap, retries := runCell(ctx, inst.Prog, func() *dcart.Runtime {
		return newRuntime(dcart.Identity{}, &opt)
	}, opt, inj)
	res.DurGolden = time.Since(gstart)
	emitRun(&opt, obs.Event{Stage: obs.StageGolden, Fn: res.Fn, LoopID: res.ID,
		DurationMS: float64(res.DurGolden) / float64(time.Millisecond), Retries: retries}, trap)
	res.Replays++
	res.Retries += retries
	if trap != nil {
		res.TrapKind = trap.Kind.String()
		switch {
		case cancelled(ctx):
			// The caller tore the analysis down mid-run; the trap is an
			// artifact of cancellation, not evidence about the program.
			markCancelled(ctx, res)
		case trap.Kind == sandbox.Budget, trap.Kind == sandbox.Timeout:
			// The analysis ran out of resources, not the program out of
			// correctness: degrade without claiming a verdict.
			res.Verdict = ResourceExhausted
			res.Reason = fmt.Sprintf("golden run hit its %s limit after %d retries: %v", trap.Kind, retries, trap.Err)
		case trap.Kind == sandbox.Panic:
			res.Verdict = Failed
			res.Reason = fmt.Sprintf("internal panic during golden run: %v", trap.Err)
		default: // Fault
			// A fault in *original* order means the transformation itself
			// broke the program; it is not commutativity evidence.
			res.Verdict = Failed
			res.Reason = "golden run faulted: " + trap.Err.Error()
		}
		return
	}
	if goldenOut != refOut {
		// The transformation changed observable behaviour even in original
		// order: a separability assumption was violated dynamically.
		res.Verdict = Failed
		res.Reason = "instrumented golden run diverges from original program"
		return
	}
	res.Invocations = golden.Invocations
	res.Iterations = golden.Iterations
	if golden.Iterations == 0 {
		// The workload either never reaches the loop or always exits it
		// before the payload runs: no dynamic evidence either way.
		res.Verdict = NotExecuted
		res.Reason = "workload never executes this loop's payload"
		return
	}

	// --- Static proof short-circuit: the prover closed a commutativity
	// proof over every iteration order, and the golden run above supplied
	// what no symbolic argument can — the workload exercises the payload,
	// and the transformation preserves original-order behaviour. The
	// replays could only reconfirm the proof, so they are skipped.
	if proved {
		if cancelled(ctx) {
			markCancelled(ctx, res)
			return
		}
		res.Verdict = Commutative
		res.Provenance = ProvenanceProved
		res.SkippedProve = len(opt.Schedules)
		return
	}

	// --- Dynamic stage: permuted runs + live-out verification. ---
	// The executor decides where each replay runs; the fold below consumes
	// outcomes strictly in schedule order and stops at the first failure, so
	// verdicts, reasons, SchedulesTested, and Retries match the sequential
	// path regardless of execution order.
	scheds := opt.Schedules
	runOne := func(i int) (oc ScheduleOutcome) {
		rstart := time.Now()
		// A panic inside a replay cell degrades to a Panic trap in both the
		// sequential and parallel executors, keeping reasons identical. The
		// replay event is emitted from this same deferred hook so trapped
		// and clean replays alike are traced — possibly concurrently, from
		// an offload worker's goroutine.
		defer func() {
			if r := recover(); r != nil {
				oc = ScheduleOutcome{trap: &sandbox.Trap{Kind: sandbox.Panic, Err: fmt.Errorf("core: recovered panic: %v", r)}}
			}
			emitRun(&opt, obs.Event{Stage: obs.StageReplay, Fn: res.Fn, LoopID: res.ID,
				Schedule: scheds[i].Name(), Retries: oc.retries,
				DurationMS: float64(time.Since(rstart)) / float64(time.Millisecond)}, oc.trap)
		}()
		rt, out, trap, retries := runCell(ctx, inst.Prog, func() *dcart.Runtime { return newRuntime(scheds[i], &opt) }, opt, inj)
		return ScheduleOutcome{rt: rt, out: out, trap: trap, retries: retries}
	}
	if exec == nil {
		exec = sequentialExecutor
	}
	get := exec(len(scheds), runOne)
	for i, sched := range scheds {
		t0 := time.Now()
		oc := get(i)
		res.DurReplay += time.Since(t0)
		res.Replays++
		res.Retries += oc.retries
		if oc.trap != nil {
			res.TrapKind = oc.trap.Kind.String()
			switch {
			case cancelled(ctx):
				markCancelled(ctx, res)
			case oc.trap.Kind == sandbox.Fault:
				// The golden run completed but this permutation trapped:
				// a divergent observable behaviour, reliably detected as a
				// commutativity violation (§IV-E).
				res.Verdict = NonCommutative
				res.Reason = fmt.Sprintf("schedule %s faulted where the golden run did not: %v", sched.Name(), oc.trap.Err)
			case oc.trap.Kind == sandbox.Budget, oc.trap.Kind == sandbox.Timeout:
				res.Verdict = ResourceExhausted
				res.Reason = fmt.Sprintf("schedule %s hit its %s limit after %d retries: %v", sched.Name(), oc.trap.Kind, oc.retries, oc.trap.Err)
			default: // Panic
				res.Verdict = Failed
				res.Reason = fmt.Sprintf("internal panic during schedule %s: %v", sched.Name(), oc.trap.Err)
			}
			return
		}
		if why := compareRuns(golden, oc.rt, refOut, oc.out, sched); why != "" {
			res.Verdict = NonCommutative
			res.Reason = why
			return
		}
		res.SchedulesTested++
		// Sequential stopping rule: enough consecutive agreements, stop
		// paying for more evidence. (Any disagreement returns above, so
		// SchedulesTested is exactly the current agreement streak.)
		if opt.StopAfter > 0 && res.SchedulesTested >= opt.StopAfter && i+1 < len(scheds) {
			res.SkippedStop = len(scheds) - (i + 1)
			break
		}
	}
	res.Verdict = Commutative
}

// emitRun emits a golden or replay event, filling the outcome from the
// trap (nil = clean).
func emitRun(opt *Options, ev obs.Event, trap *sandbox.Trap) {
	if opt.Trace == nil {
		return
	}
	if trap != nil {
		ev.Outcome = obs.OutcomeTrap
		ev.Trap = trap.Kind.String()
		if trap.Err != nil {
			ev.Err = trap.Err.Error()
		}
	} else {
		ev.Outcome = obs.OutcomeOK
	}
	opt.Trace.Emit(ev)
}

func compareRuns(golden, rt *dcart.Runtime, refOut, out string, sched dcart.Schedule) string {
	if out != refOut {
		return fmt.Sprintf("schedule %s changed program output", sched.Name())
	}
	if len(rt.Snapshots) != len(golden.Snapshots) {
		return fmt.Sprintf("schedule %s changed invocation count (%d vs %d)", sched.Name(), len(rt.Snapshots), len(golden.Snapshots))
	}
	for i := range rt.Snapshots {
		if rt.Snapshots[i] != golden.Snapshots[i] {
			why := fmt.Sprintf("schedule %s changed live-outs of invocation %d", sched.Name(), i)
			// With DebugSnapshots on, both runtimes kept the string
			// serializations: show what actually diverged.
			if i < len(golden.SnapshotStrings) && i < len(rt.SnapshotStrings) {
				why += fmt.Sprintf(": golden %s vs permuted %s",
					truncateSnap(golden.SnapshotStrings[i]), truncateSnap(rt.SnapshotStrings[i]))
			}
			return why
		}
	}
	return ""
}

// truncateSnap bounds a debug snapshot string for use inside a reason.
func truncateSnap(s string) string {
	const max = 96
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

func trimPrefixes(s string) string {
	s = strings.TrimPrefix(s, "instrument: ")
	return s
}
