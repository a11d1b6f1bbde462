package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/fuzzgen"
	"dca/internal/fuzzgen/diff"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/parallel"
	"dca/internal/polly"
	"dca/internal/sandbox"
	"dca/internal/vm"
)

// fuzzOptions are `dca fuzz`'s defaults: reverse plus two random
// schedules, 2M steps and 5 s per execution, the parallel oracle at two
// workers and the five baselines on.
func fuzzOptions() diff.Options {
	return diff.Options{
		Schedules:  []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}, dcart.Random{Seed: 2}},
		MaxSteps:   2_000_000,
		Timeout:    5 * time.Second,
		ParWorkers: []int{2},
		Baselines:  true,
	}
}

// fuzzBase is the first fuzzgen seed of the run's program range.
func fuzzBase(seed int64) int64 { return seed << 24 }

// checkCampaign runs diff.RunCampaign at -j 1 over one program and returns
// "" when the program neither trapped nor broke a cross-check.
func checkCampaign(seed int64, opt diff.Options) (string, error) {
	stats, _, err := diff.RunCampaign(context.Background(), diff.CampaignOptions{
		Seed: seed, Count: 1, Jobs: 1, Check: opt,
	})
	if err != nil {
		return "", err
	}
	return campaignFailure(seed, stats), nil
}

// campaignFailure describes a campaign's failed programs, "" if none.
func campaignFailure(seed int64, stats *diff.Stats) string {
	if n := stats.ViolationCount(); n > 0 {
		return fmt.Sprintf("program seed %d: %d cross-check violations", seed, n)
	}
	if stats.Trapped > 0 {
		return fmt.Sprintf("program seed %d: trapped %v", seed, stats.TrapKinds)
	}
	return ""
}

func runFuzzCheck(r *run) error {
	opt := fuzzOptions()
	base := fuzzBase(r.cfg.seed)

	// Setup renders and compiles the range's programs, the inputs the
	// campaign generates; the median of nine repetitions is reported.
	var setup []float64
	for rep := 0; rep < 9; rep++ {
		start := time.Now()
		for i := 0; i < fuzzRound(r.cfg.tiny); i++ {
			p := fuzzgen.New(base + int64(i))
			if _, err := irbuild.Compile(fmt.Sprintf("fuzz-seed-%d.mc", p.Seed), p.Render()); err != nil {
				return fmt.Errorf("program seed %d: %w", p.Seed, err)
			}
		}
		setup = append(setup, time.Since(start).Seconds())
	}

	runtime.GC()
	debug.FreeOSMemory()
	if r.cfg.trace {
		return fuzzTraced(r, base, opt)
	}

	// A round checks the range's fuzzRound programs in order, each by its
	// own campaign so its latency is seen.
	var rs rounds
	rss := startRSS()
	err := timedLoop(r.cfg.seconds, repeatRounds, func() error {
		lat := make([]float64, fuzzRound(r.cfg.tiny))
		start := time.Now()
		for i := range lat {
			t := time.Now()
			why, err := checkCampaign(base+int64(i), opt)
			if err != nil {
				return err
			}
			lat[i] = float64(time.Since(t)) / float64(time.Millisecond)
			r.op(why)
		}
		rs.add(lat, time.Since(start).Seconds())
		return nil
	})
	peak := rss.Stop()
	if err != nil {
		return err
	}
	if err := rs.report(r, true); err != nil {
		return err
	}
	r.set("setup_s", median(setup), "s")
	r.set("rss_peak_mb", peak, "MB")
	r.notef("setup samples %v", setup)
	return nil
}

// fuzzRound is the size of the seed's program range, which every round
// checks: enough that the 99th percentile has ten programs beyond it.
func fuzzRound(tiny bool) int {
	if tiny {
		return 3
	}
	return 1000
}

// fuzzTraced alternates programs between the untraced campaign and
// tracedCheck, which performs diff.Check's steps from here with a span
// around each layer call.
func fuzzTraced(r *run, base int64, opt diff.Options) error {
	l := newLayers()
	var rt runtimeDelta
	var traced, untraced []float64
	size := int64(fuzzRound(r.cfg.tiny))
	k := int64(0)
	err := timedLoop(r.cfg.seconds, 10, func() error {
		// The range's odd programs are traced and its even ones not, pass
		// after pass.
		seed := base + k%size
		k++
		start := time.Now()
		if (seed-base)%2 == 1 {
			r.op(tracedCheck(l, fuzzgen.New(seed), opt))
			traced = append(traced, time.Since(start).Seconds())
			return nil
		}
		before := readRuntime()
		why, err := checkCampaign(seed, opt)
		if err != nil {
			return err
		}
		rt.add(before, readRuntime())
		untraced = append(untraced, time.Since(start).Seconds())
		r.op(why)
		return nil
	})
	if err != nil {
		return err
	}
	rt.into(l, float64(len(untraced))/1000)
	l.setRaw("trace.overhead_ratio", median(traced)/median(untraced))
	l.report(r, 1000/float64(len(traced)))
	r.notef("traced %d programs, untraced %d programs", len(traced), len(untraced))
	return nil
}

// tracedCheck is diff.Check for one program with each layer timed: the
// interp-vs-vm differential, the reference run, DCA through core.Analyze
// (the prover's -no-prove re-check included), the parallel executor
// oracle and the baselines. It returns "" when the program neither trapped
// nor broke a cross-check.
func tracedCheck(l *layers, p *fuzzgen.Program, opt diff.Options) string {
	fail := func(format string, args ...any) string {
		return fmt.Sprintf("program seed %d: ", p.Seed) + fmt.Sprintf(format, args...)
	}
	start := time.Now()
	prog, err := irbuild.Compile(fmt.Sprintf("fuzz-seed-%d.mc", p.Seed), p.Render())
	l.addDur("irbuild.compile_s", time.Since(start))
	if err != nil {
		return fail("compile: %v", err)
	}

	if main := prog.Func("main"); main != nil {
		var bi, bv strings.Builder
		start = time.Now()
		oi := runExec(interp.New(prog, interp.Config{Out: &bi, MaxSteps: opt.MaxSteps}), main, &bi)
		l.addDur("interp.run_s", time.Since(start))
		start = time.Now()
		ov := runExec(vm.New(prog, interp.Config{Out: &bv, MaxSteps: opt.MaxSteps}), main, &bv)
		l.addDur("vm.run_s", time.Since(start))
		if oi != ov {
			return fail("interp and vm diverge: %+v vs %+v", oi, ov)
		}
	}

	limits := sandbox.Limits{MaxSteps: opt.MaxSteps, Timeout: opt.Timeout}
	var refOut strings.Builder
	start = time.Now()
	oc := sandbox.Run(nil, prog, interp.Config{Out: &refOut}, limits, nil)
	l.addDur("vm.reference_s", time.Since(start))
	if !oc.OK() {
		return fail("reference run trapped: %v", oc.Trap)
	}

	analyze := func(noProve bool) (*core.Report, error) {
		start := time.Now()
		rep, err := core.Analyze(prog, core.Options{
			Schedules: opt.Schedules, MaxSteps: opt.MaxSteps, Timeout: opt.Timeout,
			NoProve: noProve, Trace: l,
		})
		l.addDur("engine.analyze_s", time.Since(start))
		if err == nil {
			l.loopResults(rep)
		}
		return rep, err
	}
	rep, err := analyze(false)
	if err != nil {
		return fail("analysis: %v", err)
	}
	labels := p.Labels()
	anyProved := false
	for _, lr := range rep.Loops {
		label, ok := labels[lr.Fn]
		if ok && (label == fuzzgen.LabelNonCommutative && lr.Verdict == core.Commutative ||
			label == fuzzgen.LabelCommutative && lr.Verdict == core.NonCommutative) {
			return fail("loop %s labeled %s reported %s", lr.ID, label, lr.Verdict)
		}
		anyProved = anyProved || lr.Provenance == core.ProvenanceProved
	}
	if anyProved {
		if dyn, err := analyze(true); err == nil {
			for _, lr := range rep.Loops {
				if dr := dyn.Result(lr.Fn, lr.Index); lr.Provenance == core.ProvenanceProved && dr != nil && dr.Verdict == core.NonCommutative {
					return fail("proved loop %s diverges without the prover", lr.ID)
				}
			}
		}
	}

	for _, lr := range rep.Loops {
		spec := p.SpecByFn(lr.Fn)
		if lr.Verdict != core.Commutative || spec == nil || !spec.ParallelSafe() {
			continue
		}
		if why := runParallel(l, prog, lr, refOut.String(), opt); why != "" {
			return fail("%s", why)
		}
	}

	start = time.Now()
	prof, err := depprof.Trace(prog, opt.MaxSteps)
	l.addDur("depprof.trace_s", time.Since(start))
	if err == nil {
		start = time.Now()
		depprof.AnalyzeProfile(prog, prof, depprof.DefaultPolicy())
		discopop.AnalyzeProfile(prog, prof)
		idioms.Analyze(prog)
		polly.Analyze(prog)
		icc.Analyze(prog)
		l.addDur("baselines.analyze_s", time.Since(start))
	}
	return ""
}

// runParallel is the parallel executor oracle for one commutative loop:
// its payload runs on each worker count and the program output must equal
// the sequential reference.
func runParallel(l *layers, prog *ir.Program, lr *core.LoopResult, refOut string, opt diff.Options) string {
	inst, err := instrument.Loop(prog, lr.Fn, lr.Index)
	if err != nil {
		l.add("parallel.refused", 1)
		return ""
	}
	for _, w := range opt.ParWorkers {
		var buf strings.Builder
		start := time.Now()
		res, err := parallel.RunLoop(inst, parallel.Options{Workers: w, Out: &buf, MaxSteps: opt.MaxSteps, Timeout: opt.Timeout})
		l.addDur("parallel.runloop_s", time.Since(start))
		if err != nil {
			l.add("parallel.refused", 1)
			return ""
		}
		if res.Iterations == 0 {
			return ""
		}
		if buf.String() != refOut {
			return fmt.Sprintf("loop %s: parallel output at %d workers differs from the sequential run", lr.ID, w)
		}
	}
	l.add("parallel.checked", 1)
	return ""
}

// execOutcome is one executor's observable behaviour on a whole program.
type execOutcome struct {
	out, err, panicked string
	steps              int64
}

// runExec runs main to completion, turning a panic into an outcome.
func runExec(ex interface {
	Call(fn *ir.Func, args []ir.Value, parent *interp.Frame) (ir.Value, error)
	Steps() int64
}, main *ir.Func, buf *strings.Builder) (oc execOutcome) {
	defer func() {
		oc.out, oc.steps = buf.String(), ex.Steps()
		if r := recover(); r != nil {
			oc.panicked = fmt.Sprint(r)
		}
	}()
	if _, err := ex.Call(main, nil, nil); err != nil {
		oc.err = err.Error()
	}
	return oc
}
