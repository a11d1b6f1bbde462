// Package bench is the experiment harness: it runs every analyzer over the
// workload suites and regenerates each table and figure of the paper's
// evaluation, rendered as paper-vs-measured rows.
package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/engine"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/ir"
	"dca/internal/machine"
	"dca/internal/polly"
	"dca/internal/workloads/archetype"
	"dca/internal/workloads/npb"
)

// NPBResult bundles every analyzer's output for one generated benchmark.
type NPBResult struct {
	Spec *npb.Spec
	Prog *ir.Program

	DP   *depprof.Report
	DiP  *discopop.Report
	ID   *idioms.Report
	PO   *polly.Report
	IC   *icc.Report
	DCA  *core.Report
	Prof *depprof.Profile

	// Truth maps every loop to its archetype ground truth.
	Truth map[depprof.LoopKey]archetype.Truth

	// keys caches the program's loop enumeration: Counts, detectedKeys, and
	// Accuracy are called once per table render, and rebuilding the CFG and
	// loop forest for every call made rendering quadratic in the suite size.
	keys []depprof.LoopKey
	// speedups caches the machine-model series Table IV and Figures 6 and 7
	// all read.
	speedups *Speedups
}

// LoopKeys returns every loop of the program in deterministic order,
// computed once per result.
func (r *NPBResult) LoopKeys() []depprof.LoopKey {
	if r.keys == nil {
		r.keys = loopKeys(r.Prog)
	}
	return r.keys
}

// npbSchedules is the suite's DCA schedule set.
func npbSchedules() []dcart.Schedule {
	return []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}}
}

// RunNPB generates the benchmark and runs all six analyzers sequentially.
func RunNPB(spec *npb.Spec) (*NPBResult, error) {
	return RunNPBEngine(spec, nil)
}

// RunNPBEngine runs all six analyzers with replays drawn from pool
// (nil = sequential) and no verdict cache.
func RunNPBEngine(spec *npb.Spec, pool *engine.Pool) (*NPBResult, error) {
	return RunNPBOptions(spec, pool, nil)
}

// RunNPBOptions runs all six analyzers over the generated benchmark. The
// program executes uninstrumented once: DCA's reference run also builds
// the dependence profile the dependence profilers (depprof, discopop) and
// the machine model share — the profile is policy-independent. DCA runs on
// the concurrent engine, its replays drawn from pool (nil = sequential)
// and its verdicts served from vc (nil = always computed).
func RunNPBOptions(spec *npb.Spec, pool *engine.Pool, vc core.VerdictCache) (*NPBResult, error) {
	return RunNPBConfig(spec, pool, vc, false)
}

// RunNPBConfig additionally controls the static commutativity prover:
// noProve keeps every DCA verdict from coming from a static proof.
func RunNPBConfig(spec *npb.Spec, pool *engine.Pool, vc core.VerdictCache, noProve bool) (*NPBResult, error) {
	return RunNPBCore(spec, pool, core.Options{Cache: vc, NoProve: noProve})
}

// RunNPBCore runs all six analyzers with DCA configured by opt; an empty
// schedule set means the suite's two schedules.
func RunNPBCore(spec *npb.Spec, pool *engine.Pool, opt core.Options) (*NPBResult, error) {
	prog, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	r := &NPBResult{Spec: spec, Prog: prog}
	if len(opt.Schedules) == 0 {
		opt.Schedules = npbSchedules()
	}
	ref, err := core.RunReference(nil, prog, opt, true)
	if err != nil {
		return nil, fmt.Errorf("%s: dca: %w", spec.Name, err)
	}
	r.Prof = ref.Profile
	r.DP = depprof.AnalyzeProfile(prog, r.Prof, depprof.DefaultPolicy())
	r.DiP = discopop.AnalyzeProfile(prog, r.Prof)
	r.ID = idioms.Analyze(prog)
	r.PO = polly.Analyze(prog)
	r.IC = icc.Analyze(prog)
	r.DCA = engine.AnalyzeReference(context.Background(), prog, ref, engine.Options{Core: opt, Workers: 1, Pool: pool})
	r.Truth = truthMap(spec, prog)
	// Warm the caches before results are shared across goroutines.
	r.LoopKeys()
	r.Speedups()
	return r, nil
}

// truthMap reconstructs per-loop ground truth from the generator's group
// layout: function workN holds its group's instances' loops in order.
func truthMap(spec *npb.Spec, prog *ir.Program) map[depprof.LoopKey]archetype.Truth {
	m := map[depprof.LoopKey]archetype.Truth{}
	for gi, g := range spec.Groups() {
		fn := prog.Func(fmt.Sprintf("work%d", gi))
		if fn == nil {
			continue
		}
		loops := cfg.Loops(prog, fn)
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

// MeasuredRow is one benchmark's measured detection counts.
type MeasuredRow struct {
	Loops, DepProf, DiscoPoP, Idioms, Polly, ICC, Combined, DCA int
}

// Counts computes the measured counts across every loop of the program.
func (r *NPBResult) Counts() MeasuredRow {
	var row MeasuredRow
	keys := r.LoopKeys()
	row.Loops = len(keys)
	for _, key := range keys {
		idV := r.ID.Verdict(key.Fn, key.Index)
		poV := r.PO.Verdict(key.Fn, key.Index)
		icV := r.IC.Verdict(key.Fn, key.Index)
		id := idV != nil && idV.Parallel
		po := poV != nil && poV.Parallel
		ic := icV != nil && icV.Parallel
		if id {
			row.Idioms++
		}
		if po {
			row.Polly++
		}
		if ic {
			row.ICC++
		}
		if id || po || ic {
			row.Combined++
		}
		if v := r.DP.Verdict(key.Fn, key.Index); v != nil && v.Parallel {
			row.DepProf++
		}
		if res := r.DCA.Result(key.Fn, key.Index); res != nil && res.Verdict.IsParallelizable() {
			row.DCA++
		}
	}
	row.DiscoPoP = r.DiP.ParallelRegions()
	return row
}

// loopKeys enumerates every loop in the program deterministically.
func loopKeys(prog *ir.Program) []depprof.LoopKey {
	var keys []depprof.LoopKey
	for _, fn := range prog.Funcs {
		for _, l := range cfg.Loops(prog, fn) {
			keys = append(keys, depprof.LoopKey{Fn: fn.Name, Index: l.Index})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fn != keys[j].Fn {
			return keys[i].Fn < keys[j].Fn
		}
		return keys[i].Index < keys[j].Index
	})
	return keys
}

// detectedKeys returns the loops a predicate accepts.
func (r *NPBResult) detectedKeys(pred func(key depprof.LoopKey) bool) []depprof.LoopKey {
	var out []depprof.LoopKey
	for _, key := range r.LoopKeys() {
		if pred(key) {
			out = append(out, key)
		}
	}
	return out
}

// DCAKeys returns the loops DCA found commutative.
func (r *NPBResult) DCAKeys() []depprof.LoopKey {
	return r.detectedKeys(func(key depprof.LoopKey) bool {
		res := r.DCA.Result(key.Fn, key.Index)
		return res != nil && res.Verdict.IsParallelizable()
	})
}

// CombinedStaticKeys returns the union of the three static detectors.
func (r *NPBResult) CombinedStaticKeys() []depprof.LoopKey {
	return r.detectedKeys(func(key depprof.LoopKey) bool {
		idV := r.ID.Verdict(key.Fn, key.Index)
		poV := r.PO.Verdict(key.Fn, key.Index)
		icV := r.IC.Verdict(key.Fn, key.Index)
		return idV != nil && idV.Parallel || poV != nil && poV.Parallel || icV != nil && icV.Parallel
	})
}

// Accuracy reports DCA's false positives/negatives against ground truth
// (Table IV's semi-manual analysis, here exact by construction).
func (r *NPBResult) Accuracy() (found, falsePos, falseNeg int) {
	for _, key := range r.LoopKeys() {
		res := r.DCA.Result(key.Fn, key.Index)
		if res == nil {
			continue
		}
		truth, ok := r.Truth[key]
		if !ok {
			continue
		}
		detected := res.Verdict.IsParallelizable()
		if detected {
			found++
			if truth == archetype.TruthSerial || truth == archetype.TruthIO {
				falsePos++
			}
		} else if truth == archetype.TruthParallel {
			falseNeg++
		}
	}
	return
}

// Coverage returns (DCA coverage, combined-static coverage) as fractions.
func (r *NPBResult) Coverage() (dca, static float64) {
	dcaSel := machine.Select(r.Prof, r.DCAKeys(), 0)
	statSel := machine.Select(r.Prof, r.CombinedStaticKeys(), 0)
	return machine.Coverage(r.Prof, dcaSel), machine.Coverage(r.Prof, statSel)
}

// Speedups computes the Fig. 6 series for the benchmark: each tool
// parallelizes the profitable subset of the loops it detected, on the
// modelled 72-core host.
type Speedups struct {
	DCA, Idioms, Polly, ICC     float64
	ExpertLoop, ExpertFull      float64 // Fig. 7 series
	CoverageDCA, CoverageStatic float64
}

// MinProfitableCoverage is the expert profitability filter: loops below
// this share of execution are not worth spawning threads for.
const MinProfitableCoverage = 0.0005

// Speedups returns the benchmark's Fig. 6 and 7 series and coverage,
// computed once per result.
func (r *NPBResult) Speedups() Speedups {
	if r.speedups == nil {
		s := r.computeSpeedups()
		r.speedups = &s
	}
	return *r.speedups
}

func (r *NPBResult) computeSpeedups() Speedups {
	cfg := machine.Xeon72(r.Spec.BandwidthCap)
	speed := func(keys []depprof.LoopKey) float64 {
		sel := machine.SelectBest(cfg, r.Prof, keys, MinProfitableCoverage)
		return machine.Speedup(cfg, r.Prof, sel)
	}
	var s Speedups
	s.DCA = speed(r.DCAKeys())
	s.Idioms = speed(r.detectedKeys(func(k depprof.LoopKey) bool {
		v := r.ID.Verdict(k.Fn, k.Index)
		return v != nil && v.Parallel
	}))
	s.Polly = speed(r.detectedKeys(func(k depprof.LoopKey) bool {
		v := r.PO.Verdict(k.Fn, k.Index)
		return v != nil && v.Parallel
	}))
	s.ICC = speed(r.detectedKeys(func(k depprof.LoopKey) bool {
		v := r.IC.Verdict(k.Fn, k.Index)
		return v != nil && v.Parallel
	}))
	// Expert loop-level parallelization: the ground-truth parallel loops.
	s.ExpertLoop = speed(r.detectedKeys(func(k depprof.LoopKey) bool {
		return r.Truth[k] == archetype.TruthParallel
	}))
	// Expert whole-program parallelization: parallel sections spanning
	// loops, modelled by the spec's expert coverage/ceiling.
	cov, cap_ := r.Spec.ExpertFullCov, r.Spec.ExpertFullCap
	if cap_ > float64(cfg.Cores) {
		cap_ = float64(cfg.Cores)
	}
	if cap_ < 1 {
		cap_ = 1
	}
	s.ExpertFull = 1 / ((1 - cov) + cov/cap_)
	s.CoverageDCA, s.CoverageStatic = r.Coverage()
	return s
}

// GeoMean computes the geometric mean of positive values.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// renderTable renders aligned columns.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
