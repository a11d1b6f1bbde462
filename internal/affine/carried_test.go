package affine_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dca/internal/affine"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/fuzzgen"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/instrument"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/polly"
	"dca/internal/prove"
	"dca/internal/purity"
	"dca/internal/scalar"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
)

// traceSteps bounds the dependence profile's run; a truncated profile is
// still classified, which is all this test needs.
const traceSteps = 2_000_000

// TestCarriedComputedOnce: every loop's LoopInfo.Carried is what a fresh
// scalar.Classify computes, over the NPB proxies, the PLDS programs and
// fuzzgen seeds 1-300, and it is still the same slice with the same
// contents after every reader has run over the program: the static
// baselines (Polly, ICC, Idioms), the dependence profilers (DepProf,
// DiscoPoP), the prover and the instrumenter.
func TestCarriedComputedOnce(t *testing.T) {
	type named struct {
		name    string
		compile func() (*ir.Program, error)
	}
	var corpus []named
	for _, spec := range npb.Specs() {
		corpus = append(corpus, named{"npb/" + spec.Name, spec.Compile})
	}
	for _, p := range plds.Programs() {
		corpus = append(corpus, named{"plds/" + p.Name, p.Compile})
	}
	for seed := int64(1); seed <= 300; seed++ {
		corpus = append(corpus, named{fmt.Sprintf("fuzz/seed-%d", seed), func() (*ir.Program, error) {
			return irbuild.Compile("fuzz.mc", fuzzgen.New(seed).Render())
		}})
	}
	for _, p := range corpus {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			prog, err := p.compile()
			if err != nil {
				t.Fatal(err)
			}
			type entry struct {
				id          string
				info        *affine.LoopInfo
				shared, was []scalar.Carried
			}
			var entries []entry
			for _, fn := range prog.Funcs {
				env := affine.EnvOf(prog, fn)
				fresh := scalar.NewEnv(fn)
				loops := fresh.G.FindLoops()
				for i, loop := range env.Loops {
					info := env.Info[loop]
					if want := scalar.Classify(fresh, loops[i]); !reflect.DeepEqual(info.Carried, want) {
						t.Errorf("%s: Info.Carried %v, fresh Classify %v", loop.ID(), info.Carried, want)
					}
					entries = append(entries, entry{loop.ID(), info, info.Carried, slices.Clone(info.Carried)})
				}
			}

			polly.Analyze(prog)
			icc.Analyze(prog)
			idioms.Analyze(prog)
			prof, err := depprof.Trace(prog, traceSteps)
			if err != nil {
				t.Fatal(err)
			}
			depprof.AnalyzeProfile(prog, prof, depprof.DefaultPolicy())
			discopop.AnalyzeProfile(prog, prof)
			pur := purity.Analyze(prog)
			for _, fn := range prog.Funcs {
				for _, loop := range affine.EnvOf(prog, fn).Loops {
					prove.Loop(prog, fn.Name, loop.Index, pur)
					_, _ = instrument.Loop(prog, fn.Name, loop.Index)
				}
			}

			for _, e := range entries {
				same := len(e.info.Carried) == len(e.shared) &&
					(len(e.shared) == 0 || &e.info.Carried[0] == &e.shared[0])
				if !same || !reflect.DeepEqual(e.info.Carried, e.was) {
					t.Errorf("%s: Info.Carried %v after the analyses, %v before", e.id, e.info.Carried, e.was)
				}
			}
		})
	}
}
