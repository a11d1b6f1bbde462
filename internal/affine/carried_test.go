package affine_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dca/internal/affine"
	"dca/internal/cfg"
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
// DiscoPoP), the prover and the instrumenter. The environment's loops are
// the program's one loop forest (cfg.Loops), pointer for pointer, even when
// readers of both race to build them first.
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
			firstReaders(t, prog)
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

// firstReaders races readers of the environments and of the loop forests
// to build them first, half of them reading each function's forest before
// its environment, and checks that every reader got the one environment,
// whose loops are the stored forest's.
func firstReaders(t *testing.T, prog *ir.Program) {
	t.Helper()
	const readers = 4
	envs := make([][]*affine.Env, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, fn := range prog.Funcs {
				if r%2 == 0 {
					cfg.Loops(prog, fn)
				}
				envs[r] = append(envs[r], affine.EnvOf(prog, fn))
			}
		}(r)
	}
	wg.Wait()
	for i, fn := range prog.Funcs {
		env, loops := envs[0][i], cfg.Loops(prog, fn)
		for r := 1; r < readers; r++ {
			if envs[r][i] != env {
				t.Fatalf("%s: reader %d got a different environment", fn.Name, r)
			}
		}
		if len(env.Loops) != len(loops) {
			t.Fatalf("%s: environment has %d loops, forest %d", fn.Name, len(env.Loops), len(loops))
		}
		for j, l := range loops {
			if env.Loops[j] != l {
				t.Errorf("%s: environment loop %d is not the forest's %s", fn.Name, j, l.ID())
			}
		}
	}
}
