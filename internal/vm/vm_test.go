package vm_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dca/internal/cfg"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/vm"
)

func compile(t testing.TB, src string) *ir.Program {
	t.Helper()
	prog, err := irbuild.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// runBoth executes prog's main on both executors with fresh configs from
// mkCfg and returns (vm output, interp output, vm machine, interp machine,
// vm error, interp error). The same *ir.Program is shared, so block
// pointers in BlockCounts are comparable across the two.
func runBoth(t testing.TB, prog *ir.Program, mkCfg func(out *strings.Builder) interp.Config) (string, string, *vm.Machine, *interp.Interp, error, error) {
	t.Helper()
	main := prog.Func("main")
	if main == nil {
		t.Fatal("no main")
	}
	var outV, outI strings.Builder
	mv := vm.New(prog, mkCfg(&outV))
	_, errV := mv.Call(main, nil, nil)
	mi := interp.New(prog, mkCfg(&outI))
	_, errI := mi.Call(main, nil, nil)
	return outV.String(), outI.String(), mv, mi, errV, errI
}

// assertParity demands byte-identical output, identical step counts, and
// identical error strings (including nil-ness) from the two executors.
func assertParity(t *testing.T, prog *ir.Program, mkCfg func(out *strings.Builder) interp.Config) {
	t.Helper()
	outV, outI, mv, mi, errV, errI := runBoth(t, prog, mkCfg)
	if (errV == nil) != (errI == nil) {
		t.Fatalf("error divergence: vm=%v interp=%v", errV, errI)
	}
	if errV != nil && errV.Error() != errI.Error() {
		t.Errorf("error text divergence:\nvm:     %v\ninterp: %v", errV, errI)
	}
	if outV != outI {
		t.Errorf("output divergence:\nvm:\n%s\ninterp:\n%s", outV, outI)
	}
	if mv.Steps() != mi.Steps() {
		t.Errorf("step divergence: vm=%d interp=%d", mv.Steps(), mi.Steps())
	}
}

// TestCorpusParity runs every frontend testdata program on both executors
// and demands identical output, steps, and block counts — the byte-identical
// contract the dynamic stage's verdict tables rest on.
func TestCorpusParity(t *testing.T) {
	srcs, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "*.mc"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	for _, src := range srcs {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			text, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := irbuild.Compile(src, string(text))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			assertParity(t, prog, func(out *strings.Builder) interp.Config {
				return interp.Config{Out: out}
			})
			// Block counts from a separate pair of runs (counting is optional
			// and must not perturb the uncounted runs above).
			_, _, mv, mi, errV, errI := runBoth(t, prog, func(out *strings.Builder) interp.Config {
				return interp.Config{Out: out, CountBlocks: true}
			})
			if errV != nil || errI != nil {
				t.Fatalf("counted run failed: vm=%v interp=%v", errV, errI)
			}
			cv, ci := mv.BlockCounts(), mi.BlockCounts()
			if len(cv) != len(ci) {
				t.Fatalf("block-count table sizes diverge: vm=%d interp=%d", len(cv), len(ci))
			}
			for b, n := range ci {
				if cv[b] != n {
					t.Errorf("block %s: vm=%d interp=%d", b.Name, cv[b], n)
				}
			}
		})
	}
}

// TestFaultParity: runtime faults must carry the same wrapped frame chain
// and message from both executors.
func TestFaultParity(t *testing.T) {
	cases := map[string]string{
		"div-zero":     `func f(x int) int { var z int = 0; return x / z; } func main() { print(f(3)); }`,
		"mod-zero":     `func main() { var z int = 0; print(7 % z); }`,
		"nil-deref":    `struct N { v int; } func main() { var n *N = nil; print(n->v); }`,
		"oob-index":    `func main() { var a []int = new [4]int; print(a[9]); }`,
		"neg-index":    `func main() { var a []int = new [4]int; var i int = 0 - 1; print(a[i]); }`,
		"deep-frames":  `func a(x int) int { var z int = 0; return x / z; } func b(x int) int { return a(x); } func c(x int) int { return b(x); } func main() { print(c(1)); }`,
		"shift-amount": `func main() { var s int = 0 - 1; print(1 << s); }`,
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			assertParity(t, compile(t, src), func(out *strings.Builder) interp.Config {
				return interp.Config{Out: out}
			})
		})
	}
}

// TestBudgetParity: the step budget must trip at the same instruction with
// the same *interp.BudgetError fields — in particular Steps = limit+1, the
// step that overran.
func TestBudgetParity(t *testing.T) {
	prog := compile(t, `func main() { var s int = 0; while (true) { s += 1; } }`)
	const limit = 777
	_, _, mv, mi, errV, errI := runBoth(t, prog, func(out *strings.Builder) interp.Config {
		return interp.Config{Out: out, MaxSteps: limit}
	})
	var bv, bi *interp.BudgetError
	if !errors.As(errV, &bv) || !errors.As(errI, &bi) {
		t.Fatalf("want BudgetError from both: vm=%v interp=%v", errV, errI)
	}
	if *bv != *bi {
		t.Errorf("budget error fields diverge:\nvm:     %+v\ninterp: %+v", *bv, *bi)
	}
	if bv.Steps != limit+1 {
		t.Errorf("budget trips at step %d, want limit+1 = %d", bv.Steps, limit+1)
	}
	if mv.Steps() != mi.Steps() || mv.Steps() != limit+1 {
		t.Errorf("machine steps diverge: vm=%d interp=%d, want %d", mv.Steps(), mi.Steps(), limit+1)
	}
	if errV.Error() != errI.Error() {
		t.Errorf("budget error text diverges:\nvm:     %v\ninterp: %v", errV, errI)
	}
}

// TestHeapBudgetParity: allocation budgets trip identically.
func TestHeapBudgetParity(t *testing.T) {
	src := `struct N { v int; } func main() { for (var i int = 0; i < 100; i++) { var n *N = new N; n->v = i; } }`
	assertParity(t, compile(t, src), func(out *strings.Builder) interp.Config {
		return interp.Config{Out: out, MaxHeapObjects: 10}
	})
}

// TestCancelParity: a pre-cancelled context stops both executors with
// ErrCancelled before any visible effect.
func TestCancelParity(t *testing.T) {
	prog := compile(t, `func main() { print(1); }`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, _, errV, errI := runBoth(t, prog, func(out *strings.Builder) interp.Config {
		return interp.Config{Out: out, Ctx: ctx}
	})
	if !errors.Is(errV, interp.ErrCancelled) || !errors.Is(errI, interp.ErrCancelled) {
		t.Fatalf("want ErrCancelled from both: vm=%v interp=%v", errV, errI)
	}
	if errV.Error() != errI.Error() {
		t.Errorf("cancel error text diverges:\nvm:     %v\ninterp: %v", errV, errI)
	}
}

// TestFootprintParity: both executors must feed the reference run's loop
// recorder identically — per loop the same invocations, iterations at
// every block, disjointness and re-entry — on a program with nested loops,
// a callee loop run from inside another loop, a recursive function that
// re-enters its own loop, a return from inside a loop, a silent store and a
// zero-trip loop. The recorder's verdicts on those shapes are pinned too.
func TestFootprintParity(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "loops", "loopshapes.mc"))
	if err != nil {
		t.Fatal(err)
	}
	prog := compile(t, string(src))
	main := prog.Func("main")
	run := func(exec func(c interp.Config) error) *interp.LoopRecorder {
		rec := interp.NewLoopRecorder(prog)
		var out strings.Builder
		if err := exec(interp.Config{Out: &out, Loops: rec}); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	rv := run(func(c interp.Config) error { _, err := vm.New(prog, c).Call(main, nil, nil); return err })
	ri := run(func(c interp.Config) error { _, err := interp.New(prog, c).Call(main, nil, nil); return err })

	// loops finds each loop by its function and header line.
	type loopAt struct {
		fn     *ir.Func
		index  int
		header int
	}
	loops := map[string]loopAt{}
	for _, fn := range prog.Funcs {
		_, ls := cfg.LoopsOf(fn)
		for _, l := range ls {
			for b := range fn.Blocks {
				r1, _ := rv.Loop(fn, l.Index, b)
				r2, _ := ri.Loop(fn, l.Index, b)
				if r1 != r2 {
					t.Errorf("%s block %d: vm %+v, interp %+v", l.ID(), b, r1, r2)
				}
			}
			loops[fmt.Sprintf("%s:%d", fn.Name, l.Header.Pos.Line)] = loopAt{fn, l.Index, rv.Func(fn).Position(l.Header)}
		}
	}
	want := []struct {
		at          string
		invocations int64
		headers     int64 // header entries: invocations plus back edges
		reentered   bool
		disjoint    bool
	}{
		{"main:36", 1, 5, false, true},   // outer of a nest: each iteration writes its own row
		{"main:37", 4, 20, false, true},  // inner of the nest
		{"main:41", 1, 4, false, false},  // calls fill, which rewrites a[0..7] every iteration
		{"fill:7", 3, 27, false, true},   // callee loop run from inside main:41
		{"main:44", 1, 9, false, true},   // a[0] = a[0] is a silent store: a read
		{"main:49", 1, 1, false, true},   // zero-trip
		{"find:13", 1, 6, false, true},   // left through a return
		{"walk:24", 15, 45, true, false}, // re-entered by recursion
	}
	for _, w := range want {
		l, ok := loops[w.at]
		if !ok {
			t.Fatalf("no loop at %s", w.at)
		}
		got, _ := rv.Loop(l.fn, l.index, l.header)
		if got.Invocations != w.invocations || got.Iterations != w.headers || got.Reentered != w.reentered ||
			(!w.reentered && got.Disjoint != w.disjoint) {
			t.Errorf("%s: got %+v, want invocations=%d header entries=%d reentered=%v disjoint=%v",
				w.at, got, w.invocations, w.headers, w.reentered, w.disjoint)
		}
	}
}

// TestSupported: per-instruction subscriptions keep runs off the VM.
func TestSupported(t *testing.T) {
	if !vm.Supported(interp.Config{}) {
		t.Error("plain config should be VM-supported")
	}
	if vm.Supported(interp.Config{StepHook: func(*interp.Frame, ir.Instr, int64) error { return nil }}) {
		t.Error("StepHook config must not be VM-supported")
	}
	if vm.Supported(interp.Config{Tracer: nopTracer{}}) {
		t.Error("Tracer config must not be VM-supported")
	}
}

type nopTracer struct{}

func (nopTracer) OnBlock(*interp.Frame, *ir.Block)                  {}
func (nopTracer) OnLoad(*interp.Frame, *ir.Load, *ir.Object, int)   {}
func (nopTracer) OnStore(*interp.Frame, *ir.Store, *ir.Object, int) {}
func (nopTracer) OnCall(*interp.Frame)                              {}
func (nopTracer) OnRet(*interp.Frame)                               {}
