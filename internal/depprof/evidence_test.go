package depprof_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dca/internal/cfg"
	"dca/internal/depprof"
	"dca/internal/fuzzgen"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/sandbox"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
)

// program is one input the observer is checked or measured on.
type program struct {
	name string
	prog *ir.Program
}

// compiled names a compiled program, failing tb on a compile error.
func compiled(tb testing.TB, name string, prog *ir.Program, err error) program {
	tb.Helper()
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return program{name, prog}
}

// npbPrograms compiles the ten NPB proxies.
func npbPrograms(tb testing.TB) []program {
	var progs []program
	for _, s := range npb.Specs() {
		prog, err := s.Compile()
		progs = append(progs, compiled(tb, "npb/"+s.Name, prog, err))
	}
	return progs
}

// fuzzPrograms compiles fuzzgen seeds 1..n.
func fuzzPrograms(tb testing.TB, n int) []program {
	var progs []program
	for seed := 1; seed <= n; seed++ {
		prog, err := irbuild.Compile("fuzz.mc", fuzzgen.New(int64(seed)).Render())
		progs = append(progs, compiled(tb, fmt.Sprintf("fuzz/%d", seed), prog, err))
	}
	return progs
}

// observe runs prog once, as the reference run does, under a builder made
// with or without the profile.
func observe(tb testing.TB, prog *ir.Program, profile bool) *depprof.Builder {
	tb.Helper()
	b := depprof.NewBuilder(prog, profile)
	var out strings.Builder
	oc := sandbox.Run(nil, prog, interp.Config{Out: &out, Tracer: b}, sandbox.Limits{}, nil)
	if !oc.OK() {
		tb.Fatalf("reference run trapped: %v", oc.Trap)
	}
	if got := b.Profile(oc.Result.Steps, false); (got != nil) != profile {
		tb.Fatalf("builder with profile=%v returned profile %v", profile, got)
	}
	return b
}

// TestEvidenceIndependentOfProfile: the evidence DCA decides loops from is
// the same whether or not the observer also builds the dependence profile,
// for every loop and block position of the loop-shape corpus, the NPB
// proxies, the PLDS programs and fuzzgen seeds 1-2000.
func TestEvidenceIndependentOfProfile(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "loops", "loopshapes.mc"))
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := irbuild.Compile("loopshapes.mc", string(src))
	progs := []program{compiled(t, "loopshapes", shapes, err)}
	progs = append(progs, npbPrograms(t)...)
	for _, p := range plds.Programs() {
		prog, err := p.Compile()
		progs = append(progs, compiled(t, "plds/"+p.Name, prog, err))
	}
	progs = append(progs, fuzzPrograms(t, 2000)...)
	pairs := 0
	for _, p := range progs {
		ev, both := observe(t, p.prog, false), observe(t, p.prog, true)
		for _, fn := range p.prog.Funcs {
			for _, l := range cfg.Loops(p.prog, fn) {
				for b := range fn.Blocks {
					r1, ok1 := ev.Loop(fn, l.Index, b)
					r2, ok2 := both.Loop(fn, l.Index, b)
					if r1 != r2 || !ok1 || !ok2 {
						t.Fatalf("%s %s block %d: evidence only %+v (ok %v), with the profile %+v (ok %v)",
							p.name, l.ID(), b, r1, ok1, r2, ok2)
					}
					pairs++
				}
			}
		}
	}
	if pairs < 100000 {
		t.Errorf("compared only %d (loop, block) pairs; the corpus has over 100,000", pairs)
	}
}

// BenchmarkObservers measures one reference run per program of a set — the
// ten NPB proxies, or fuzzgen seeds 1-500 — with no observer, with the
// observer recording only the evidence (dca analyze, dca serve), and with it
// also building the dependence profile (the NPB and PLDS harnesses, analyze
// -baselines, dca fuzz).
func BenchmarkObservers(b *testing.B) {
	sets := []struct {
		name  string
		progs []program
	}{
		{"npb", npbPrograms(b)},
		{"fuzz", fuzzPrograms(b, 500)},
	}
	for _, set := range sets {
		for _, mode := range []string{"none", "evidence", "profile"} {
			b.Run(set.name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, p := range set.progs {
						var out strings.Builder
						cfg := interp.Config{Out: &out}
						var obs *depprof.Builder
						if mode != "none" {
							obs = depprof.NewBuilder(p.prog, mode == "profile")
							cfg.Tracer = obs
						}
						oc := sandbox.Run(nil, p.prog, cfg, sandbox.Limits{}, nil)
						if !oc.OK() {
							b.Fatalf("%s: %v", p.name, oc.Trap)
						}
						if obs != nil {
							obs.Profile(oc.Result.Steps, false)
						}
					}
				}
			})
		}
	}
}
