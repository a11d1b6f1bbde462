package bench_test

import (
	"reflect"
	"strings"
	"testing"

	"dca/internal/bench"
	"dca/internal/core"
	"dca/internal/depprof"
	"dca/internal/obs"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
)

// TestNPBSmall reproduces Tables I/III/IV exactly for the small benchmarks
// (kept fast enough for every test run; TestNPBFull covers the rest).
func TestNPBSmall(t *testing.T) {
	for _, name := range []string{"EP", "IS"} {
		assertNPB(t, npb.SpecByName(name))
	}
}

// TestNPBFull asserts the detection counts of every NPB proxy against the
// paper's tables. Run with -short to skip (it analyzes ~1600 loops).
func TestNPBFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full NPB suite skipped in -short mode")
	}
	for _, spec := range npb.Specs() {
		assertNPB(t, spec)
	}
}

func assertNPB(t *testing.T, spec *npb.Spec) {
	t.Helper()
	r, err := bench.RunNPB(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	row := r.Counts()
	p := spec.Paper
	if row.Loops != p.Loops {
		t.Errorf("%s: loops = %d, paper %d", spec.Name, row.Loops, p.Loops)
	}
	if p.DPReported && row.DepProf != p.DepProf {
		t.Errorf("%s: depprof = %d, paper %d", spec.Name, row.DepProf, p.DepProf)
	}
	if p.DPReported && row.DiscoPoP != p.DiscoPoP {
		t.Errorf("%s: discopop = %d, paper %d", spec.Name, row.DiscoPoP, p.DiscoPoP)
	}
	if row.Idioms != p.Idioms {
		t.Errorf("%s: idioms = %d, paper %d", spec.Name, row.Idioms, p.Idioms)
	}
	if row.Polly != p.Polly {
		t.Errorf("%s: polly = %d, paper %d", spec.Name, row.Polly, p.Polly)
	}
	if row.ICC != p.ICC {
		t.Errorf("%s: icc = %d, paper %d", spec.Name, row.ICC, p.ICC)
	}
	if row.Combined != p.Combined {
		t.Errorf("%s: combined = %d, paper %d", spec.Name, row.Combined, p.Combined)
	}
	if row.DCA != p.DCA {
		t.Errorf("%s: dca = %d, paper %d", spec.Name, row.DCA, p.DCA)
	}
	if _, fp, fn := r.Accuracy(); fp != 0 || fn != 0 {
		t.Errorf("%s: false positives %d / negatives %d, want 0/0", spec.Name, fp, fn)
	}
	s := r.Speedups()
	if s.DCA < 1 || s.ExpertLoop < s.DCA-0.01 {
		t.Errorf("%s: implausible speedups %+v", spec.Name, s)
	}
}

// TestPLDSHarness checks Table II / Figure 5 generation over two
// representative workloads.
func TestPLDSHarness(t *testing.T) {
	var results []*bench.PLDSResult
	for _, name := range []string{"treeadd", "BFS"} {
		r, err := bench.RunPLDS(plds.ByName(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.DCAFound {
			t.Errorf("%s: DCA missed the key loop (%s)", name, r.DCAWhy)
		}
		if len(r.BaselinesDetecting) > 0 {
			t.Errorf("%s: baselines unexpectedly detect: %v", name, r.BaselinesDetecting)
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: Fig5 speedup = %.2f, want > 1", name, r.Speedup)
		}
		results = append(results, r)
	}
	tab := bench.TableII(results)
	if !strings.Contains(tab, "treeadd") || !strings.Contains(tab, "all fail") {
		t.Errorf("Table II rendering broken:\n%s", tab)
	}
	fig := bench.Figure5(results)
	if !strings.Contains(fig, "BFS") {
		t.Errorf("Figure 5 rendering broken:\n%s", fig)
	}
}

func TestGeoMean(t *testing.T) {
	if g := bench.GeoMean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("GeoMean(2,8) = %v, want 4", g)
	}
	if g := bench.GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v", g)
	}
	if g := bench.GeoMean([]float64{1, 0}); g != 0 {
		t.Errorf("GeoMean with zero = %v", g)
	}
}

// TestNPBOneReferenceRun: a proxy executes uninstrumented once — DCA's
// reference run also builds the dependence profile — and that profile is
// the one a standalone trace builds.
func TestNPBOneReferenceRun(t *testing.T) {
	spec := npb.SpecByName("IS")
	var sink obs.Collector
	r, err := bench.RunNPBCore(spec, nil, core.Options{Trace: &sink})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, ev := range sink.Events() {
		if ev.Stage == obs.StageReference {
			refs++
		}
	}
	if refs != 1 {
		t.Errorf("%d reference runs, want 1", refs)
	}
	prof, err := depprof.Trace(r.Prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Steps != r.Prof.Steps || !reflect.DeepEqual(prof.LoopSteps, r.Prof.LoopSteps) ||
		!reflect.DeepEqual(prof.Contains, r.Prof.Contains) ||
		depprof.AnalyzeProfile(r.Prog, prof, depprof.DefaultPolicy()).String() != r.DP.String() {
		t.Error("the reference run's profile differs from a standalone trace")
	}
}
