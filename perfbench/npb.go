package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dca/internal/bench"
	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/engine"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/ir"
	"dca/internal/polly"
	"dca/internal/workloads/archetype"
	"dca/internal/workloads/npb"
)

// npbSpecs returns the proxies a pass analyzes: all ten, or the two
// smallest in the self-check's tiny mode.
func npbSpecs(tiny bool) []*npb.Spec {
	if tiny {
		return []*npb.Spec{npb.SpecByName("EP"), npb.SpecByName("IS")}
	}
	return npb.Specs()
}

// npbPass is one run of the paper-reproduction path that cmd/experiments
// takes for NPB, at -j 1: every proxy compiled, traced by depprof, run
// through the five baselines and DCA, then Tables I/III/IV and Figures 6-7
// rendered. A nil l calls bench.RunNPBConfig; a non-nil l runs the same
// steps from here, timing each layer.
func npbPass(specs []*npb.Spec, pool *engine.Pool, l *layers) (*bench.Suite, string, error) {
	s := &bench.Suite{Results: make([]*bench.NPBResult, len(specs))}
	for i := range specs {
		var res *bench.NPBResult
		var err error
		if l == nil {
			res, err = bench.RunNPBConfig(specs[i], pool, nil, false)
		} else {
			res, err = tracedNPB(specs[i], pool, l)
		}
		if err != nil {
			return nil, "", err
		}
		s.Results[i] = res
	}
	start := time.Now()
	tables := s.TableI() + s.TableIII() + s.TableIV() + s.Figure6() + s.Figure7()
	if l != nil {
		l.addDur("bench.tables_s", time.Since(start))
	}
	return s, tables, nil
}

// npbSchedules is the schedule set internal/bench analyzes NPB with.
func npbSchedules() []dcart.Schedule {
	return []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}}
}

// tracedNPB performs bench.RunNPBConfig's steps with a span around each
// layer call and the trace sink.
func tracedNPB(spec *npb.Spec, pool *engine.Pool, l *layers) (*bench.NPBResult, error) {
	start := time.Now()
	prog, err := spec.Compile()
	l.addDur("irbuild.compile_s", time.Since(start))
	if err != nil {
		return nil, err
	}
	r := &bench.NPBResult{Spec: spec, Prog: prog}
	start = time.Now()
	prof, err := depprof.Trace(prog, 0)
	l.addDur("depprof.trace_s", time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("%s: trace: %w", spec.Name, err)
	}
	r.Prof = prof
	start = time.Now()
	r.DP = depprof.AnalyzeProfile(prog, prof, depprof.DefaultPolicy())
	r.DiP = discopop.AnalyzeProfile(prog, prof)
	r.ID = idioms.Analyze(prog)
	r.PO = polly.Analyze(prog)
	r.IC = icc.Analyze(prog)
	l.addDur("baselines.analyze_s", time.Since(start))
	copt := core.Options{Schedules: npbSchedules(), Trace: l}
	start = time.Now()
	r.DCA, err = engine.Analyze(context.Background(), prog, engine.Options{Core: copt, Workers: 1, Pool: pool})
	l.addDur("engine.analyze_s", time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("%s: dca: %w", spec.Name, err)
	}
	l.loopResults(r.DCA)
	r.Truth = truthMap(spec, prog)
	r.LoopKeys()
	return r, nil
}

// truthMap rebuilds per-loop ground truth from the generator's layout, as
// internal/bench does: function workN holds its group's loops in order.
func truthMap(spec *npb.Spec, prog *ir.Program) map[depprof.LoopKey]archetype.Truth {
	m := map[depprof.LoopKey]archetype.Truth{}
	for gi, g := range spec.Groups() {
		fn := prog.Func(fmt.Sprintf("work%d", gi))
		if fn == nil {
			continue
		}
		_, loops := cfg.LoopsOf(fn)
		li := 0
		for _, inst := range g {
			for k := 0; k < inst.Kind.LoopsPerInstance(); k++ {
				if li < len(loops) {
					m[depprof.LoopKey{Fn: fn.Name, Index: loops[li].Index}] = inst.Kind.Truth()
					li++
				}
			}
		}
	}
	return m
}

// checkNPBResult compares one proxy's measured counts with the paper's
// published row and its DCA verdicts with the archetype ground truth;
// neither answer comes from the analyzer. It returns "" when both agree.
func checkNPBResult(res *bench.NPBResult) string {
	row, p := res.Counts(), res.Spec.Paper
	type cmp struct {
		what       string
		got, want  int
		applicable bool
	}
	for _, c := range []cmp{
		{"loops", row.Loops, p.Loops, true},
		{"depprof", row.DepProf, p.DepProf, p.DPReported},
		{"discopop", row.DiscoPoP, p.DiscoPoP, p.DPReported},
		{"idioms", row.Idioms, p.Idioms, true},
		{"polly", row.Polly, p.Polly, true},
		{"icc", row.ICC, p.ICC, true},
		{"combined", row.Combined, p.Combined, true},
		{"dca", row.DCA, p.DCA, true},
	} {
		if c.applicable && c.got != c.want {
			return fmt.Sprintf("%s: %s = %d, paper %d", res.Spec.Name, c.what, c.got, c.want)
		}
	}
	if _, fp, fn := res.Accuracy(); fp != 0 || fn != 0 {
		return fmt.Sprintf("%s: %d false positives, %d false negatives against archetype truth", res.Spec.Name, fp, fn)
	}
	return ""
}

// checkNPBPass records one operation per proxy. A pass whose rendered
// tables differ from the reference fails every proxy in it.
func checkNPBPass(r *run, s *bench.Suite, tables, want string) {
	for _, res := range s.Results {
		why := checkNPBResult(res)
		if why == "" && tables != want {
			why = "tables differ from the reference pass"
		}
		r.op(why)
	}
}

// runNPBCold measures suite passes with no verdict cache. The inputs are
// the paper's fixed suite, so the seed does not change them; the proxies
// run one after another in spec order, because the order moves the
// process's peak memory.
func runNPBCold(r *run) error {
	specs := npbSpecs(r.cfg.tiny)
	pool := engine.NewPool(1)

	// Setup renders and compiles the proxies, the inputs of a pass; the
	// median of nine repetitions is reported.
	var setup []float64
	for i := 0; i < 9; i++ {
		start := time.Now()
		for _, spec := range specs {
			if _, err := spec.Compile(); err != nil {
				return err
			}
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	// The first timed pass's tables are the reference every later pass
	// must reproduce byte for byte.
	var want string
	check := func(s *bench.Suite, tables string) {
		if want == "" {
			want = tables
		}
		checkNPBPass(r, s, tables, want)
	}

	runtime.GC()
	debug.FreeOSMemory()
	if r.cfg.trace {
		return npbTraced(r, specs, pool, check)
	}

	// Each pass is a round over the same 1397 loops: their verdict
	// latencies and the pass's wall time.
	var rs rounds
	rss := startRSS()
	err := timedLoop(r.cfg.seconds, repeatRounds, func() error {
		// Every pass starts from a collected heap, so no pass inherits
		// another's garbage.
		runtime.GC()
		start := time.Now()
		s, tables, err := npbPass(specs, pool, nil)
		if err != nil {
			return err
		}
		pass := time.Since(start).Seconds()
		check(s, tables)
		var lat []float64
		for _, res := range s.Results {
			for _, lr := range res.DCA.Loops {
				lat = append(lat, float64(lr.Elapsed)/float64(time.Millisecond))
			}
		}
		rs.add(lat, pass)
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

// npbTraced alternates traced and untraced passes: the traced ones give
// the per-layer totals, the untraced ones the runtime counters and the
// headline time the tracing overhead is measured against.
func npbTraced(r *run, specs []*npb.Spec, pool *engine.Pool, check func(*bench.Suite, string)) error {
	l := newLayers()
	var rt runtimeDelta
	var traced, untraced []float64
	i := 0
	err := timedLoop(r.cfg.seconds, 3, func() error {
		t := i%2 == 0
		i++
		runtime.GC()
		before := readRuntime()
		start := time.Now()
		var tl *layers
		if t {
			tl = l
		}
		s, tables, err := npbPass(specs, pool, tl)
		if err != nil {
			return err
		}
		d := time.Since(start).Seconds()
		if t {
			traced = append(traced, d)
		} else {
			rt.add(before, readRuntime())
			untraced = append(untraced, d)
		}
		check(s, tables)
		return nil
	})
	if err != nil {
		return err
	}
	rt.into(l, float64(len(untraced)))
	l.setRaw("trace.overhead_ratio", median(traced)/median(untraced))
	l.report(r, 1/float64(len(traced)))
	r.notef("traced passes %v; untraced passes %v", traced, untraced)
	return nil
}
