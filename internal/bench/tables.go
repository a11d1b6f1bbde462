package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/engine"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/machine"
	"dca/internal/polly"
	"dca/internal/purity"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
)

// Suite holds the results for the full NPB proxy suite.
type Suite struct {
	Results []*NPBResult
}

// RunSuite runs every analyzer over all ten NPB proxies, fanned out over
// GOMAXPROCS workers.
func RunSuite() (*Suite, error) {
	return RunSuiteWorkers(runtime.GOMAXPROCS(0))
}

// RunSuiteWorkers runs the suite with a bounded worker budget shared by
// everything: benchmark-level fan-out, per-loop analyses, and per-schedule
// replays all draw from one pool, so -j N bounds total concurrency rather
// than multiplying across levels. Results keep spec order; the verdicts are
// identical to the sequential path for any worker count.
func RunSuiteWorkers(workers int) (*Suite, error) {
	return RunSuiteOptions(workers, nil)
}

// RunSuiteOptions additionally shares a verdict cache across the whole
// suite: a warm cache serves every previously analyzed loop without
// re-running its dynamic stage.
func RunSuiteOptions(workers int, vc core.VerdictCache) (*Suite, error) {
	return RunSuiteCore(workers, core.Options{Cache: vc})
}

// RunSuiteCore runs the suite with DCA configured by opt (see RunNPBCore).
func RunSuiteCore(workers int, opt core.Options) (*Suite, error) {
	if workers < 1 {
		workers = 1
	}
	specs := npb.Specs()
	pool := engine.NewPool(workers)
	results := make([]*NPBResult, len(specs))
	errs := make([]error, len(specs))
	// The spec-level gate bounds how many benchmarks run their traced
	// profiling and static analyses at once; the engine pool bounds the
	// dynamic-stage replays within and across benchmarks.
	gate := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec *npb.Spec) {
			defer wg.Done()
			gate <- struct{}{}
			defer func() { <-gate }()
			results[i], errs[i] = RunNPBCore(spec, pool, opt)
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Suite{Results: results}, nil
}

// Replays sums the dynamic-stage executions (golden runs plus schedule
// replays) across the suite's DCA reports — the work a warm cache avoids.
func (s *Suite) Replays() int {
	n := 0
	for _, r := range s.Results {
		n += r.DCA.Replays()
	}
	return n
}

// ProvedLoops counts the loops across the suite whose verdicts the static
// commutativity prover decided without any execution.
func (s *Suite) ProvedLoops() int {
	n := 0
	for _, r := range s.Results {
		n += r.DCA.ProvedLoops()
	}
	return n
}

// SkippedProveRuns sums the dynamic-stage executions (golden run plus every
// schedule replay) that static proofs made unnecessary across the suite.
func (s *Suite) SkippedProveRuns() int {
	n := 0
	for _, r := range s.Results {
		n += r.DCA.SkippedProveRuns()
	}
	return n
}

// CachedLoops counts the loops whose verdicts were served from the cache.
func (s *Suite) CachedLoops() int {
	n := 0
	for _, r := range s.Results {
		n += r.DCA.CachedLoops()
	}
	return n
}

func cell(paper int, measured int, reported bool) string {
	if !reported {
		return fmt.Sprintf("—/%d", measured)
	}
	return fmt.Sprintf("%d/%d", paper, measured)
}

// TableI renders the paper's Table I (dynamic techniques vs DCA) as
// paper/measured cells.
func (s *Suite) TableI() string {
	header := []string{"Bmk", "Loops", "DepProf", "DiscoPoP", "DCA"}
	var rows [][]string
	tot := MeasuredRow{}
	ptot := npb.PaperRow{}
	for _, r := range s.Results {
		row := r.Counts()
		p := r.Spec.Paper
		rows = append(rows, []string{
			r.Spec.Name,
			cell(p.Loops, row.Loops, true),
			cell(p.DepProf, row.DepProf, p.DPReported),
			cell(p.DiscoPoP, row.DiscoPoP, p.DPReported),
			cell(p.DCA, row.DCA, true),
		})
		tot.Loops += row.Loops
		tot.DepProf += row.DepProf
		tot.DiscoPoP += row.DiscoPoP
		tot.DCA += row.DCA
		ptot.Loops += p.Loops
		ptot.DepProf += p.DepProf
		ptot.DiscoPoP += p.DiscoPoP
		ptot.DCA += p.DCA
	}
	rows = append(rows, []string{"Total",
		cell(ptot.Loops, tot.Loops, true),
		cell(ptot.DepProf, tot.DepProf, true) + " (paper total over reported rows)",
		cell(ptot.DiscoPoP, tot.DiscoPoP, true),
		cell(ptot.DCA, tot.DCA, true),
	})
	return "Table I — NPB loops reported parallelizable (paper/measured)\n" + renderTable(header, rows)
}

// TableIII renders the static techniques vs DCA.
func (s *Suite) TableIII() string {
	header := []string{"Bmk", "Loops", "Idioms", "Polly", "ICC", "Combined", "DCA"}
	var rows [][]string
	tot := MeasuredRow{}
	ptot := npb.PaperRow{}
	for _, r := range s.Results {
		row := r.Counts()
		p := r.Spec.Paper
		rows = append(rows, []string{
			r.Spec.Name,
			cell(p.Loops, row.Loops, true),
			cell(p.Idioms, row.Idioms, true),
			cell(p.Polly, row.Polly, true),
			cell(p.ICC, row.ICC, true),
			cell(p.Combined, row.Combined, true),
			cell(p.DCA, row.DCA, true),
		})
		tot.Loops += row.Loops
		tot.Idioms += row.Idioms
		tot.Polly += row.Polly
		tot.ICC += row.ICC
		tot.Combined += row.Combined
		tot.DCA += row.DCA
		ptot.Loops += p.Loops
		ptot.Idioms += p.Idioms
		ptot.Polly += p.Polly
		ptot.ICC += p.ICC
		ptot.Combined += p.Combined
		ptot.DCA += p.DCA
	}
	rows = append(rows, []string{"Total",
		cell(ptot.Loops, tot.Loops, true),
		cell(ptot.Idioms, tot.Idioms, true),
		cell(ptot.Polly, tot.Polly, true),
		cell(ptot.ICC, tot.ICC, true),
		cell(ptot.Combined, tot.Combined, true),
		cell(ptot.DCA, tot.DCA, true),
	})
	return "Table III — NPB loops reported parallelizable by static tools (paper/measured)\n" + renderTable(header, rows)
}

// TableIV renders DCA accuracy and coverage.
func (s *Suite) TableIV() string {
	header := []string{"Bmk", "Loops", "Found", "FalsePos", "FalseNeg", "CovDCA%", "CovStatic%"}
	var rows [][]string
	for _, r := range s.Results {
		row := r.Counts()
		p := r.Spec.Paper
		found, fp, fn := r.Accuracy()
		sp := r.Speedups()
		cd, cs := sp.CoverageDCA, sp.CoverageStatic
		rows = append(rows, []string{
			r.Spec.Name,
			fmt.Sprintf("%d", row.Loops),
			fmt.Sprintf("%d/%d", p.DCA, found),
			fmt.Sprintf("0/%d", fp),
			fmt.Sprintf("0/%d", fn),
			fmt.Sprintf("%d/%.0f", p.CovDCA, cd*100),
			fmt.Sprintf("%d/%.0f", p.CovStatic, cs*100),
		})
	}
	return "Table IV — DCA precision and sequential coverage (paper/measured)\n" + renderTable(header, rows)
}

// Figure6 renders the NPB parallelization speedups.
func (s *Suite) Figure6() string {
	header := []string{"Bmk", "Idioms", "Polly", "ICC", "DCA"}
	var rows [][]string
	var gID, gPO, gIC, gDCA []float64
	var pID, pPO, pIC, pDCA []float64
	for _, r := range s.Results {
		sp := r.Speedups()
		p := r.Spec.Paper
		rows = append(rows, []string{
			r.Spec.Name,
			fmt.Sprintf("%.1f/%.2f", p.SpeedIdioms, sp.Idioms),
			fmt.Sprintf("%.1f/%.2f", p.SpeedPolly, sp.Polly),
			fmt.Sprintf("%.1f/%.2f", p.SpeedICC, sp.ICC),
			fmt.Sprintf("%.1f/%.2f", p.SpeedDCA, sp.DCA),
		})
		gID = append(gID, sp.Idioms)
		gPO = append(gPO, sp.Polly)
		gIC = append(gIC, sp.ICC)
		gDCA = append(gDCA, sp.DCA)
		pID = append(pID, p.SpeedIdioms)
		pPO = append(pPO, p.SpeedPolly)
		pIC = append(pIC, p.SpeedICC)
		pDCA = append(pDCA, p.SpeedDCA)
	}
	rows = append(rows, []string{"GMean",
		fmt.Sprintf("%.1f/%.2f", GeoMean(pID), GeoMean(gID)),
		fmt.Sprintf("%.1f/%.2f", GeoMean(pPO), GeoMean(gPO)),
		fmt.Sprintf("%.1f/%.2f", GeoMean(pIC), GeoMean(gIC)),
		fmt.Sprintf("%.1f/%.2f", GeoMean(pDCA), GeoMean(gDCA)),
	})
	return "Figure 6 — NPB speedup over sequential, 72-core model (paper/measured)\n" + renderTable(header, rows)
}

// Figure7 renders DCA against expert parallelization.
func (s *Suite) Figure7() string {
	header := []string{"Bmk", "DCA", "ExpertLoop", "ExpertFull"}
	var rows [][]string
	var gD, gL, gF, pD, pL, pF []float64
	for _, r := range s.Results {
		sp := r.Speedups()
		p := r.Spec.Paper
		rows = append(rows, []string{
			r.Spec.Name,
			fmt.Sprintf("%.1f/%.2f", p.SpeedDCA, sp.DCA),
			fmt.Sprintf("%.1f/%.2f", p.SpeedExpertLoop, sp.ExpertLoop),
			fmt.Sprintf("%.1f/%.2f", p.SpeedExpertFull, sp.ExpertFull),
		})
		gD, gL, gF = append(gD, sp.DCA), append(gL, sp.ExpertLoop), append(gF, sp.ExpertFull)
		pD, pL, pF = append(pD, p.SpeedDCA), append(pL, p.SpeedExpertLoop), append(pF, p.SpeedExpertFull)
	}
	rows = append(rows, []string{"GMean",
		fmt.Sprintf("%.1f/%.2f", GeoMean(pD), GeoMean(gD)),
		fmt.Sprintf("%.1f/%.2f", GeoMean(pL), GeoMean(gL)),
		fmt.Sprintf("%.1f/%.2f", GeoMean(pF), GeoMean(gF)),
	})
	return "Figure 7 — DCA vs expert parallelization, 72-core model (paper/measured)\n" + renderTable(header, rows)
}

// PLDSResult is the Table II / Figure 5 outcome for one PLDS workload.
type PLDSResult struct {
	Program  *plds.Program
	DCAFound bool
	DCAWhy   string
	// BaselinesDetecting lists any baseline that (incorrectly, per the
	// paper's claim) reported the key loop parallel.
	BaselinesDetecting []string
	CoverageMeasured   float64
	Speedup            float64 // machine-model speedup (Fig. 5 programs)
}

// RunPLDS analyzes one PLDS workload end to end.
func RunPLDS(p *plds.Program) (*PLDSResult, error) {
	return RunPLDSCore(p, core.Options{})
}

// RunPLDSCore analyzes one PLDS workload end to end with DCA configured by
// opt; its schedule set is always the harness's own. The program executes
// uninstrumented once: that reference run builds the dependence profile
// and serves the key loop's analysis and Figure 5's whole-program one.
func RunPLDSCore(p *plds.Program, opt core.Options) (*PLDSResult, error) {
	prog, err := p.Compile()
	if err != nil {
		return nil, err
	}
	fn := prog.Func(p.KeyFn)
	if fn == nil {
		return nil, fmt.Errorf("%s: no function %q", p.Name, p.KeyFn)
	}
	loops := cfg.Loops(prog, fn)
	if p.KeyLoop < 0 || p.KeyLoop >= len(loops) {
		return nil, fmt.Errorf("%s: %s has %d loops", p.Name, p.KeyFn, len(loops))
	}
	res := &PLDSResult{Program: p}
	ref, err := core.RunReference(nil, prog, opt, true)
	if err != nil {
		return nil, fmt.Errorf("%s: dca: %w", p.Name, err)
	}
	prof := ref.Profile

	keyOpt := opt
	keyOpt.Schedules = []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}, dcart.Random{Seed: 2}}
	loop := loops[p.KeyLoop]
	dcaRes := &core.LoopResult{Fn: fn.Name, Index: loop.Index, ID: loop.ID(), Pos: loop.Header.Pos, Depth: loop.Depth}
	core.AnalyzeLoopInto(context.Background(), prog, fn, loop, purity.Analyze(prog), keyOpt.Normalized(), ref, dcaRes, nil)
	res.DCAFound = dcaRes.Verdict.IsParallelizable()
	res.DCAWhy = dcaRes.Reason

	dp := depprof.AnalyzeProfile(prog, prof, depprof.DefaultPolicy())
	if v := dp.Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
		res.BaselinesDetecting = append(res.BaselinesDetecting, "DepProf")
	}
	dpp := discopop.AnalyzeProfile(prog, prof)
	if v := dpp.Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
		res.BaselinesDetecting = append(res.BaselinesDetecting, "DiscoPoP")
	}
	if v := idioms.Analyze(prog).Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
		res.BaselinesDetecting = append(res.BaselinesDetecting, "Idioms")
	}
	if v := polly.Analyze(prog).Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
		res.BaselinesDetecting = append(res.BaselinesDetecting, "Polly")
	}
	if v := icc.Analyze(prog).Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
		res.BaselinesDetecting = append(res.BaselinesDetecting, "ICC")
	}

	key := depprof.LoopKey{Fn: p.KeyFn, Index: p.KeyLoop}
	res.CoverageMeasured = machine.Coverage(dp.Profile, []depprof.LoopKey{key})
	if p.Fig5 {
		// DCA parallelization of the whole program: every commutative loop
		// is a candidate, the profitability filter and outermost selection
		// pick the parallel regions (as for the NPB suite).
		fullOpt := opt
		fullOpt.Schedules = []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}}
		full := engine.AnalyzeReference(context.Background(), prog, ref, engine.Options{Core: fullOpt})
		var keys []depprof.LoopKey
		for _, lr := range full.Loops {
			if lr.Verdict.IsParallelizable() {
				keys = append(keys, depprof.LoopKey{Fn: lr.Fn, Index: lr.Index})
			}
		}
		cfg := machine.Xeon72(p.Cap)
		sel := machine.SelectBest(cfg, dp.Profile, keys, MinProfitableCoverage)
		res.Speedup = machine.Speedup(cfg, dp.Profile, sel)
	}
	return res, nil
}

// TableII renders the PLDS detection table.
func TableII(results []*PLDSResult) string {
	header := []string{"Benchmark", "Origin", "Function", "Cov% p/m", "Loop", "Overall", "Technique", "DCA", "Baselines"}
	var rows [][]string
	for _, r := range results {
		dca := "commutative"
		if !r.DCAFound {
			dca = "MISSED(" + r.DCAWhy + ")"
		}
		base := "all fail"
		if len(r.BaselinesDetecting) > 0 {
			base = "DETECTED BY " + strings.Join(r.BaselinesDetecting, ",")
		}
		p := r.Program
		rows = append(rows, []string{
			p.Name, p.Origin, p.Function,
			fmt.Sprintf("%d/%.0f", p.CoveragePct, r.CoverageMeasured*100),
			p.PotentialLoop, p.PotentialOverall, p.Technique, dca, base,
		})
	}
	return "Table II — PLDS loops detected by DCA; baselines fail (paper/measured)\n" + renderTable(header, rows)
}

// Figure5 renders the PLDS parallelization speedups.
func Figure5(results []*PLDSResult) string {
	header := []string{"Benchmark", "Paper", "Measured"}
	var rows [][]string
	for _, r := range results {
		if !r.Program.Fig5 {
			continue
		}
		rows = append(rows, []string{
			r.Program.Name,
			fmt.Sprintf("%.1f", r.Program.Fig5Target),
			fmt.Sprintf("%.2f", r.Speedup),
		})
	}
	return "Figure 5 — PLDS speedup over sequential, 72-core model (paper/measured)\n" + renderTable(header, rows)
}
