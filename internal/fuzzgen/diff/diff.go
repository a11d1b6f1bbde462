// Package diff is the differential harness over the fuzzgen generator: it
// pushes every generated program through the full DCA pipeline under the
// existing sandbox budgets and cross-checks the outcome three ways —
//
//  1. DCA verdict vs. the generator's ground-truth label. A commutative
//     verdict on a non-commutative label is a soundness violation and
//     fails the campaign hard; divergence evidence on a commutative label
//     ("label violation") is equally hard — one of the generator's proof
//     or the analyzer is wrong, and either must be fixed.
//  2. DCA vs. the five baseline detectors (dependence profiling, DiscoPoP,
//     idioms, Polly, ICC), logged as precision/soundness deltas per
//     baseline — never campaign failures; static over-claims on
//     non-commutative loops are exactly the paper's point.
//  3. Parallel-executor output vs. the sequential golden run for every
//     loop DCA marks commutative whose payload is safe for the
//     privatization scheme — the end-to-end oracle that closes the loop
//     with internal/parallel. Divergence fails hard.
//
// Disagreements are shrunk by the fuzzgen minimizer and persisted into the
// regression corpus (internal/fuzzgen/corpus), deduplicated by loop
// fingerprint; the corpus replays in ordinary `go test` runs.
package diff

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/engine"
	"dca/internal/fingerprint"
	"dca/internal/fuzzgen"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/obs"
	"dca/internal/parallel"
	"dca/internal/polly"
	"dca/internal/purity"
	"dca/internal/sandbox"
	"dca/internal/vm"
)

// BaselineNames lists the five baseline detectors the harness runs
// differentially against DCA.
var BaselineNames = []string{"depprof", "discopop", "idioms", "polly", "icc"}

// Options configures one differential check.
type Options struct {
	// Schedules are the permutations DCA tests; default Reverse + 2 random.
	// Reverse must stay in the set: the generator's non-commutative label
	// arguments are proofs about the reversed order specifically.
	Schedules []dcart.Schedule
	// MaxSteps / Timeout bound every execution (defaults 2M steps, 5s).
	MaxSteps int64
	Timeout  time.Duration
	// ParWorkers are the worker counts the parallel oracle exercises
	// (default {2}).
	ParWorkers []int
	// Baselines enables the five-detector differential comparison.
	Baselines bool
}

func (o Options) normalized() Options {
	if len(o.Schedules) == 0 {
		o.Schedules = []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}, dcart.Random{Seed: 2}}
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 2_000_000
	}
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if len(o.ParWorkers) == 0 {
		o.ParWorkers = []int{2}
	}
	return o
}

// Violation kinds.
const (
	KindSoundness   = "soundness"
	KindLabel       = "label"
	KindParallelDiv = "parallel-divergence"
	// KindExecDiv: the bytecode VM and the tree-walking interpreter
	// disagreed on the same program — output bytes, step count, or error.
	// The two executors are contractually identical; any divergence is an
	// executor bug and fails the campaign hard.
	KindExecDiv = "exec-divergence"
	// KindProverDiv: the static commutativity prover declared a loop
	// commutative but the dynamic stage (prover disabled) produced
	// divergence evidence on the same loop. The proof and the evidence
	// cannot both be right; either way the prover is unsound and the
	// campaign fails hard.
	KindProverDiv = "prover-divergence"
)

// Violation is one hard disagreement in a checked program.
type Violation struct {
	Kind    string
	Fn      string
	Index   int
	Label   fuzzgen.Label
	Verdict string
	Detail  string
}

// LoopOutcome records one loop's cross-check.
type LoopOutcome struct {
	Fn      string
	Index   int
	Labeled bool
	Label   fuzzgen.Label
	Verdict core.Verdict
	Reason  string
	// Proved marks a verdict decided by the static commutativity prover
	// (no execution evidence); these loops are re-analyzed with the prover
	// disabled and cross-checked against the dynamic verdict.
	Proved bool
	// ParallelChecked/ParallelRefused report the end-to-end oracle: checked
	// means at least one worker-count ran to completion and was compared;
	// refused means the executor declined (unprivatizable env) or trapped.
	ParallelChecked bool
	ParallelRefused bool
	// Baselines maps detector name -> claims-parallel, present when the
	// baseline comparison ran.
	Baselines map[string]bool
}

// Result is the differential outcome for one generated program.
type Result struct {
	Seed    int64
	Source  string
	Trapped bool
	// TrapKind classifies a skipped program: "compile", "fault", "budget",
	// "timeout", "panic", or "error".
	TrapKind   string
	TrapDetail string
	Loops      []LoopOutcome
	Violations []Violation
}

// Check runs one generated program through the full differential harness.
// It never panics and never aborts a campaign: a program that traps at any
// stage (compile, reference execution, analysis) comes back with Trapped
// set and is counted, not fatal.
func Check(p *fuzzgen.Program, opt Options) *Result {
	return check(p, opt, nil)
}

// check is Check with the analysis's trace events sent to sink (nil =
// none).
func check(p *fuzzgen.Program, opt Options, sink obs.Sink) (res *Result) {
	opt = opt.normalized()
	res = &Result{Seed: p.Seed}
	defer func() {
		if r := recover(); r != nil {
			res.Trapped = true
			res.TrapKind = "panic"
			res.TrapDetail = fmt.Sprint(r)
		}
	}()
	res.Source = p.Render()
	prog, err := irbuild.Compile(fmt.Sprintf("fuzz-seed-%d.mc", p.Seed), res.Source)
	if err != nil {
		res.Trapped = true
		res.TrapKind = "compile"
		res.TrapDetail = err.Error()
		return res
	}

	// Cross-check 0: the two executors themselves. Both run the whole
	// program directly (bypassing the process-global VM toggle, which a
	// concurrent campaign must not flip); any divergence in output, steps,
	// or error is an executor bug, minimized and persisted like any other
	// violation.
	if detail := execDiverge(prog, opt.MaxSteps); detail != "" {
		res.Violations = append(res.Violations, Violation{
			Kind: KindExecDiv, Fn: "main", Index: 0, Verdict: "divergent", Detail: detail,
		})
	}

	// The program executes uninstrumented once. That reference run gives
	// the parallel oracle its expected output, serves DCA and the prover
	// re-check, and builds the dependence profile for the baselines.
	copt := core.Options{
		Schedules: opt.Schedules,
		MaxSteps:  opt.MaxSteps,
		Timeout:   opt.Timeout,
		Trace:     sink,
	}.Normalized()
	ref, err := core.RunReference(nil, prog, copt, opt.Baselines)
	if err != nil {
		res.Trapped = true
		res.TrapKind = trapKindOf(err)
		res.TrapDetail = err.Error()
		return res
	}
	rep := engine.AnalyzeReference(nil, prog, ref, engine.Options{Core: copt, Workers: 1})

	labels := p.Labels()
	for _, lr := range rep.Loops {
		out := LoopOutcome{Fn: lr.Fn, Index: lr.Index, Verdict: lr.Verdict, Reason: lr.Reason,
			Proved: lr.Provenance == core.ProvenanceProved}
		if label, ok := labels[lr.Fn]; ok {
			out.Labeled = true
			out.Label = label
			// Cross-check 1: verdict vs. ground truth. Only the two
			// definitive verdicts can disagree with a label; exclusion,
			// inseparability, and resource exhaustion are coverage loss,
			// not evidence.
			switch {
			case label == fuzzgen.LabelNonCommutative && lr.Verdict == core.Commutative:
				detail := "DCA reported a provably order-dependent loop commutative"
				if out.Proved {
					detail = "the static prover declared a provably order-dependent loop commutative"
				}
				res.Violations = append(res.Violations, Violation{
					Kind: KindSoundness, Fn: lr.Fn, Index: lr.Index, Label: label,
					Verdict: lr.Verdict.String(),
					Detail:  detail,
				})
			case label == fuzzgen.LabelCommutative && lr.Verdict == core.NonCommutative:
				res.Violations = append(res.Violations, Violation{
					Kind: KindLabel, Fn: lr.Fn, Index: lr.Index, Label: label,
					Verdict: lr.Verdict.String(),
					Detail:  "DCA produced divergence evidence on a provably commutative loop: " + lr.Reason,
				})
			}
		}
		res.Loops = append(res.Loops, out)
	}

	// Cross-check 4: every statically proved verdict against the dynamic
	// oracle. Re-analyze the proved loops with the prover disabled and
	// demand that none comes back NonCommutative — divergence evidence
	// against a proof means the prover is unsound. Coverage-loss verdicts
	// (not-executed, resource-exhausted, failed) are not disagreement: the
	// proof needs no execution evidence, which is the point of having it.
	var proved []LoopOutcome
	for _, out := range res.Loops {
		if out.Proved {
			proved = append(proved, out)
		}
	}
	if len(proved) > 0 {
		noProve := copt
		noProve.NoProve = true
		for i, dr := range analyzeLoops(prog, ref, noProve, proved) {
			if out := proved[i]; dr.Verdict == core.NonCommutative {
				res.Violations = append(res.Violations, Violation{
					Kind: KindProverDiv, Fn: out.Fn, Index: out.Index, Label: out.Label,
					Verdict: out.Verdict.String(),
					Detail:  "dynamic stage (prover disabled) found divergence on a static-proved loop: " + dr.Reason,
				})
			}
		}
	}

	// Cross-check 3: the end-to-end parallel oracle.
	for i := range res.Loops {
		out := &res.Loops[i]
		if !out.Labeled || out.Verdict != core.Commutative {
			continue
		}
		spec := p.SpecByFn(out.Fn)
		if spec == nil || !spec.ParallelSafe() {
			continue
		}
		checkParallel(prog, out, ref.Out, opt, res)
	}

	// Cross-check 2: the five baselines, logged as deltas only.
	if opt.Baselines {
		runBaselines(prog, ref.Profile, res)
	}
	return res
}

// analyzeLoops analyzes the given loops of prog under copt against its
// reference run, returning one result per loop, in order: each loop's
// result is the one a whole-program analysis would report.
func analyzeLoops(prog *ir.Program, ref *core.Reference, copt core.Options, loops []LoopOutcome) []*core.LoopResult {
	pur := purity.Analyze(prog)
	out := make([]*core.LoopResult, len(loops))
	for i, l := range loops {
		fn := prog.Func(l.Fn)
		loop := cfg.Loops(prog, fn)[l.Index]
		out[i] = &core.LoopResult{Fn: l.Fn, Index: l.Index, ID: loop.ID()}
		core.AnalyzeLoopInto(context.Background(), prog, fn, loop, pur, copt, ref, out[i], nil)
	}
	return out
}

// execOutcome captures one executor's complete observable behaviour on a
// program: output bytes, executed steps, the error (empty = clean), and a
// recovered panic message (empty = no panic).
type execOutcome struct {
	out      string
	steps    int64
	err      string
	trapKind string
	panicked string
}

// stepCounter is the slice of the executor contract execDiverge needs.
type stepCounter interface {
	Call(fn *ir.Func, args []ir.Value, parent *interp.Frame) (ir.Value, error)
	Steps() int64
}

// runExec runs main() to completion under one executor, converting panics
// into a comparable outcome instead of unwinding the harness.
func runExec(ex stepCounter, main *ir.Func, buf *strings.Builder) (oc execOutcome) {
	defer func() {
		oc.out = buf.String()
		oc.steps = ex.Steps()
		if r := recover(); r != nil {
			oc.panicked = fmt.Sprint(r)
		}
	}()
	if _, err := ex.Call(main, nil, nil); err != nil {
		oc.err = err.Error()
		oc.trapKind = sandbox.Classify(err).String()
	}
	return oc
}

// execDiverge runs the program under the tree-walking interpreter and the
// bytecode VM and describes the first observable divergence ("" = none).
func execDiverge(prog *ir.Program, maxSteps int64) string {
	main := prog.Func("main")
	if main == nil {
		return ""
	}
	var bufI, bufV strings.Builder
	oi := runExec(interp.New(prog, interp.Config{Out: &bufI, MaxSteps: maxSteps}), main, &bufI)
	ov := runExec(vm.New(prog, interp.Config{Out: &bufV, MaxSteps: maxSteps}), main, &bufV)
	switch {
	case oi.panicked != ov.panicked:
		return fmt.Sprintf("panic divergence: interp %q vs vm %q", oi.panicked, ov.panicked)
	case oi.trapKind != ov.trapKind:
		return fmt.Sprintf("trap-category divergence: interp %q (%s) vs vm %q (%s)", oi.trapKind, oi.err, ov.trapKind, ov.err)
	case oi.err != ov.err:
		return fmt.Sprintf("error divergence: interp %q vs vm %q", oi.err, ov.err)
	case oi.out != ov.out:
		return fmt.Sprintf("output divergence: interp %q vs vm %q", truncate(oi.out), truncate(ov.out))
	case oi.steps != ov.steps:
		return fmt.Sprintf("step-count divergence: interp %d vs vm %d", oi.steps, ov.steps)
	}
	return ""
}

// checkParallel runs one DCA-commutative loop through the goroutine
// executor at each configured worker count and compares whole-program
// output with the sequential reference.
func checkParallel(prog *ir.Program, out *LoopOutcome, refOut string, opt Options, res *Result) {
	inst, err := instrument.Loop(prog, out.Fn, out.Index)
	if err != nil {
		out.ParallelRefused = true
		return
	}
	for _, w := range opt.ParWorkers {
		var buf strings.Builder
		pres, err := parallel.RunLoop(inst, parallel.Options{
			Workers: w, Out: &buf, MaxSteps: opt.MaxSteps, Timeout: opt.Timeout,
		})
		if err != nil {
			// Refusal (unprivatizable env, e.g. a min/max accumulator) or a
			// worker trap: logged, never a divergence.
			out.ParallelRefused = true
			return
		}
		if pres.Iterations == 0 {
			return
		}
		if buf.String() != refOut {
			out.ParallelChecked = true
			res.Violations = append(res.Violations, Violation{
				Kind: KindParallelDiv, Fn: out.Fn, Index: out.Index, Label: out.Label,
				Verdict: out.Verdict.String(),
				Detail: fmt.Sprintf("parallel output (workers=%d) diverged from sequential golden: %q vs %q",
					w, truncate(buf.String()), truncate(refOut)),
			})
			return
		}
	}
	out.ParallelChecked = true
}

// runBaselines attaches the five detectors' claims to every labeled loop.
// One dependence profile serves both dependence profilers, as in cmd/dca.
func runBaselines(prog *ir.Program, prof *depprof.Profile, res *Result) {
	dp := depprof.AnalyzeProfile(prog, prof, depprof.DefaultPolicy())
	dpp := discopop.AnalyzeProfile(prog, prof)
	idi := idioms.Analyze(prog)
	pol := polly.Analyze(prog)
	ic := icc.Analyze(prog)
	claims := func(fn string, idx int) map[string]bool {
		m := map[string]bool{}
		if v := dp.Verdict(fn, idx); v != nil {
			m["depprof"] = v.Parallel
		}
		if v := dpp.Verdict(fn, idx); v != nil {
			m["discopop"] = v.Parallel
		}
		if v := idi.Verdict(fn, idx); v != nil {
			m["idioms"] = v.Parallel
		}
		if v := pol.Verdict(fn, idx); v != nil {
			m["polly"] = v.Parallel
		}
		if v := ic.Verdict(fn, idx); v != nil {
			m["icc"] = v.Parallel
		}
		return m
	}
	for i := range res.Loops {
		if res.Loops[i].Labeled {
			res.Loops[i].Baselines = claims(res.Loops[i].Fn, res.Loops[i].Index)
		}
	}
}

// trapKindOf classifies an analysis-level error.
func trapKindOf(err error) string {
	var trap *sandbox.Trap
	if errors.As(err, &trap) {
		return trap.Kind.String()
	}
	return "error"
}

func truncate(s string) string {
	const max = 120
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

// LoopFingerprint computes the structural fingerprint of one loop in a
// generated program — the corpus dedup key. Falls back to the program
// fingerprint when the loop cannot be instrumented.
func LoopFingerprint(src, fn string, index int) (string, error) {
	prog, err := irbuild.Compile("corpus.mc", src)
	if err != nil {
		return "", err
	}
	if sep, err := instrument.Separate(prog, fn, index); err == nil {
		return fingerprint.Separated(prog, fn, index, sep, fingerprint.Inputs{}).String(), nil
	}
	return fingerprint.Run(prog, fingerprint.Inputs{}).String(), nil
}

// CampaignOptions configures a fuzzing campaign: Count programs generated
// from consecutive seeds starting at Seed, checked on Jobs workers.
type CampaignOptions struct {
	// Seed is the campaign seed. Program i is generated from seed Seed+i,
	// so any failure reproduces with `dca fuzz -seed <Seed+i> -count 1`.
	// Seed 0 is an ordinary fixed seed — seeds are never derived from the
	// clock, here or anywhere in the generator.
	Seed  int64
	Count int
	// Jobs bounds concurrent program checks (default GOMAXPROCS).
	Jobs int
	// Wall caps campaign wall-clock time; the campaign stops dispatching
	// when exceeded and reports WallCapped (0 = uncapped).
	Wall  time.Duration
	Check Options
	// CorpusDir, when non-empty, receives minimized counterexamples
	// (deduplicated by loop fingerprint).
	CorpusDir string
	// MinimizeChecks bounds re-checks spent shrinking one failure
	// (default 200).
	MinimizeChecks int
	// Log receives the campaign header, per-failure repro lines, and the
	// summary (nil = silent).
	Log io.Writer
}

// BaselineStat aggregates one detector's claims against the ground truth.
type BaselineStat struct {
	// OnCommutative / LabeledCommutative: of the loops labeled commutative
	// that the baseline saw, how many it also claimed parallel — the
	// precision delta against DCA.
	OnCommutative      int `json:"on_commutative"`
	LabeledCommutative int `json:"labeled_commutative"`
	// OnNonCommutative / LabeledNonCommutative: how many provably
	// order-dependent loops the baseline claimed parallel — a static
	// over-claim, logged, never a campaign failure.
	OnNonCommutative      int `json:"on_non_commutative"`
	LabeledNonCommutative int `json:"labeled_non_commutative"`
}

// Stats is the campaign aggregate.
type Stats struct {
	CampaignSeed int64          `json:"campaign_seed"`
	Requested    int            `json:"requested"`
	Completed    int            `json:"completed"`
	Trapped      int            `json:"trapped"`
	TrapKinds    map[string]int `json:"trap_kinds,omitempty"`
	// Verdicts is the verdict distribution over every analyzed loop
	// (labeled productions and unlabeled scaffolding alike).
	Verdicts map[string]int `json:"verdicts"`
	// Labels counts labeled loops by ground truth; LabelVerdicts maps
	// "label/verdict" to a count for the full confusion surface.
	Labels        map[string]int `json:"labels"`
	LabelVerdicts map[string]int `json:"label_verdicts"`
	// Parallel oracle counters.
	ParallelChecked int `json:"parallel_checked"`
	ParallelRefused int `json:"parallel_refused"`
	// ProvedLoops counts loops the static commutativity prover decided
	// (each one cross-checked against the prover-disabled dynamic verdict).
	ProvedLoops int `json:"proved_loops"`
	// Hard-failure counters (must all be zero for a healthy campaign).
	SoundnessViolations int                      `json:"soundness_violations"`
	LabelViolations     int                      `json:"label_violations"`
	ParallelDivergences int                      `json:"parallel_divergences"`
	ExecDivergences     int                      `json:"exec_divergences"`
	ProverDivergences   int                      `json:"prover_divergences"`
	Baselines           map[string]*BaselineStat `json:"baselines,omitempty"`
	Seconds             float64                  `json:"seconds"`
	ProgramsPerSec      float64                  `json:"programs_per_sec"`
	TrapRate            float64                  `json:"trap_rate"`
	WallCapped          bool                     `json:"wall_capped,omitempty"`
}

// Violations returns the total hard-failure count.
func (s *Stats) ViolationCount() int {
	return s.SoundnessViolations + s.LabelViolations + s.ParallelDivergences +
		s.ExecDivergences + s.ProverDivergences
}

// Failure is one campaign disagreement after minimization.
type Failure struct {
	Violation
	// Seed regenerates the original program: `dca fuzz -seed Seed -count 1`.
	Seed  int64
	Repro string
	// Minimized is the shrunk spec, Source its rendering.
	Minimized *fuzzgen.Program
	Source    string
	// CorpusPath is where the entry was written ("" when deduplicated
	// against an existing isomorphic entry or no corpus dir configured).
	CorpusPath string
	Deduped    bool
}

// RunCampaign generates and differentially checks Count programs. It
// returns the aggregate stats and every (minimized) failure; err is
// reserved for campaign-infrastructure problems — program-level traps and
// violations never abort the run.
func RunCampaign(ctx context.Context, opt CampaignOptions) (*Stats, []*Failure, error) {
	if opt.Count <= 0 {
		opt.Count = 100
	}
	if opt.Jobs <= 0 {
		opt.Jobs = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Wall > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Wall)
		defer cancel()
	}
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format, args...)
		}
	}
	logf("dca fuzz: campaign seed=%d count=%d jobs=%d (repro any failure with its printed seed)\n",
		opt.Seed, opt.Count, opt.Jobs)

	stats := &Stats{
		CampaignSeed:  opt.Seed,
		Requested:     opt.Count,
		TrapKinds:     map[string]int{},
		Verdicts:      map[string]int{},
		Labels:        map[string]int{},
		LabelVerdicts: map[string]int{},
		Baselines:     map[string]*BaselineStat{},
	}
	var (
		mu       sync.Mutex
		failures []*Failure
		wg       sync.WaitGroup
	)
	start := time.Now()
	sem := make(chan struct{}, opt.Jobs)
	for i := 0; i < opt.Count; i++ {
		if ctx.Err() != nil {
			stats.WallCapped = true
			break
		}
		seed := opt.Seed + int64(i)
		sem <- struct{}{}
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer func() { <-sem }()
			res := Check(fuzzgen.New(seed), opt.Check)
			mu.Lock()
			defer mu.Unlock()
			mergeStats(stats, res)
			for _, v := range res.Violations {
				f := handleFailure(seed, v, opt, logf)
				failures = append(failures, f)
			}
		}(seed)
	}
	wg.Wait()
	stats.Seconds = time.Since(start).Seconds()
	done := stats.Completed + stats.Trapped
	if stats.Seconds > 0 {
		stats.ProgramsPerSec = float64(done) / stats.Seconds
	}
	if done > 0 {
		stats.TrapRate = float64(stats.Trapped) / float64(done)
	}
	if stats.WallCapped {
		logf("dca fuzz: wall-clock cap hit after %d of %d programs\n", done, opt.Count)
	}
	return stats, failures, nil
}

// mergeStats folds one program result into the campaign aggregate.
// Caller holds the stats lock.
func mergeStats(s *Stats, res *Result) {
	for _, v := range res.Violations {
		switch v.Kind {
		case KindSoundness:
			s.SoundnessViolations++
		case KindLabel:
			s.LabelViolations++
		case KindParallelDiv:
			s.ParallelDivergences++
		case KindExecDiv:
			s.ExecDivergences++
		case KindProverDiv:
			s.ProverDivergences++
		}
	}
	if res.Trapped {
		s.Trapped++
		s.TrapKinds[res.TrapKind]++
		return
	}
	s.Completed++
	for _, lo := range res.Loops {
		s.Verdicts[lo.Verdict.String()]++
		if lo.Proved {
			s.ProvedLoops++
		}
		if !lo.Labeled {
			continue
		}
		s.Labels[lo.Label.String()]++
		s.LabelVerdicts[lo.Label.String()+"/"+lo.Verdict.String()]++
		if lo.ParallelChecked {
			s.ParallelChecked++
		}
		if lo.ParallelRefused {
			s.ParallelRefused++
		}
		for name, claims := range lo.Baselines {
			bs := s.Baselines[name]
			if bs == nil {
				bs = &BaselineStat{}
				s.Baselines[name] = bs
			}
			switch lo.Label {
			case fuzzgen.LabelCommutative:
				bs.LabeledCommutative++
				if claims {
					bs.OnCommutative++
				}
			case fuzzgen.LabelNonCommutative:
				bs.LabeledNonCommutative++
				if claims {
					bs.OnNonCommutative++
				}
			}
		}
	}
}

// handleFailure minimizes one violation, writes it to the corpus, and logs
// the repro line. Caller holds the stats lock (minimization is expensive
// but failures are rare by design; serializing them keeps corpus writes
// race-free).
func handleFailure(seed int64, v Violation, opt CampaignOptions, logf func(string, ...any)) *Failure {
	f := &Failure{
		Violation: v,
		Seed:      seed,
		Repro:     fmt.Sprintf("dca fuzz -seed %d -count 1", seed),
	}
	orig := fuzzgen.New(seed)
	min := fuzzgen.Minimize(orig, func(cand *fuzzgen.Program) bool {
		r := Check(cand, opt.Check)
		for _, cv := range r.Violations {
			if cv.Kind == v.Kind && cv.Fn == v.Fn {
				return true
			}
		}
		return false
	}, opt.MinimizeChecks)
	f.Minimized = min
	f.Source = min.Render()
	logf("dca fuzz: FAILURE kind=%s fn=%s loop=%d label=%s verdict=%s seed=%d\n    repro: %s\n    %s\n",
		v.Kind, v.Fn, v.Index, v.Label, v.Verdict, seed, f.Repro, v.Detail)
	if opt.CorpusDir == "" {
		return f
	}
	fp, err := LoopFingerprint(f.Source, v.Fn, v.Index)
	if err != nil {
		logf("dca fuzz: warning: fingerprinting minimized counterexample failed: %v\n", err)
		return f
	}
	path, dup, err := fuzzgen.WriteEntry(opt.CorpusDir, &fuzzgen.Entry{
		Kind: v.Kind, Fn: v.Fn, Loop: v.Index,
		Label: v.Label.String(), Verdict: v.Verdict, Detail: v.Detail,
		Seed: seed, CampaignSeed: opt.Seed, Repro: f.Repro,
		Fingerprint: fp, Spec: min, Source: f.Source,
	})
	switch {
	case err != nil:
		logf("dca fuzz: warning: writing corpus entry failed: %v\n", err)
	case dup:
		f.Deduped = true
		logf("dca fuzz: corpus: isomorphic entry already present (fingerprint %s), not rewritten\n", fp[:16])
	default:
		f.CorpusPath = path
		logf("dca fuzz: corpus: wrote %s\n", path)
	}
	return f
}
