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
	"dca/internal/depprof"
	"dca/internal/fuzzgen"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/vm"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
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
// vm error, interp error). mkCfg is called for the VM first.
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
// identical error strings (including nil-ness) from the two executors. It
// returns the VM's error.
func assertParity(t *testing.T, prog *ir.Program, mkCfg func(out *strings.Builder) interp.Config) error {
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
	return errV
}

// plain configures a run with output capture and nothing else.
func plain(out *strings.Builder) interp.Config { return interp.Config{Out: out} }

// TestCorpusParity runs every frontend testdata program, the ten NPB
// proxies and the PLDS programs on both executors and demands identical
// output and steps — the byte-identical contract the dynamic stage's
// verdict tables rest on.
func TestCorpusParity(t *testing.T) {
	srcs, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "*.mc"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	for _, src := range srcs {
		t.Run(filepath.Base(src), func(t *testing.T) {
			text, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := irbuild.Compile(src, string(text))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			assertParity(t, prog, plain)
		})
	}
	for _, s := range npb.Specs() {
		t.Run("npb-"+s.Name, func(t *testing.T) {
			prog, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			assertParity(t, prog, plain)
		})
	}
	for _, p := range plds.Programs() {
		t.Run("plds-"+p.Name, func(t *testing.T) {
			prog, err := p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			assertParity(t, prog, plain)
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

// TestOutputBudgetParity: the output budget trips at the same print, with
// the same error and the same truncated output, on both executors.
func TestOutputBudgetParity(t *testing.T) {
	prog := compile(t, `func main() { for (var i int = 0; i < 10000; i++) { print(i); } }`)
	err := assertParity(t, prog, func(out *strings.Builder) interp.Config {
		return interp.Config{Out: out, MaxOutput: 64}
	})
	var be *interp.BudgetError
	if !errors.As(err, &be) || be.Resource != "output-bytes" {
		t.Fatalf("want an output-bytes budget error, got %v", err)
	}
}

// tripSrc has every kind of step a trip can land on: plain instructions, a
// call, both halves of a fused load+binop (in add) and of a fused
// compare+branch (the loop header), goto, if and ret terminators, and
// prints. It runs past several 256-step context polls.
const tripSrc = `
func add(a []int, i int) int { return a[i] + i; }
func main() {
	var a []int = new [40]int;
	var s int = 0;
	for (var i int = 0; i < 40; i++) {
		a[i] = i * 2;
		s = s + add(a, i);
		if (i % 10 == 0) { print(s); }
	}
	print(s);
}`

// TestTripParity arms a step trip at every step of a run and one past its
// end, with and without a context to poll. Both executors must call it
// once at that very step and stop there with the same error text, steps
// and output: the trip's error unwrapped in the frame that tripped and
// wrapped by each caller. A trip that returns nil must let the run finish
// untouched.
func TestTripParity(t *testing.T) {
	prog := compile(t, tripSrc)
	_, _, mv, _, errV, errI := runBoth(t, prog, plain)
	if errV != nil || errI != nil {
		t.Fatalf("untripped run failed: vm=%v interp=%v", errV, errI)
	}
	total := mv.Steps()
	for _, ctx := range []context.Context{nil, context.Background()} {
		for at := int64(1); at <= total+1; at++ {
			var fired []string
			mk := func(stop bool) func(out *strings.Builder) interp.Config {
				return func(out *strings.Builder) interp.Config {
					return interp.Config{Out: out, Ctx: ctx, Trip: interp.StepTrip{At: at, Fire: func(fn string) error {
						fired = append(fired, fn)
						if stop {
							return fmt.Errorf("tripped in %s", fn)
						}
						return nil
					}}}
				}
			}
			outV, outI, mv, mi, errV, errI := runBoth(t, prog, mk(true))
			if at > total {
				if errV != nil || errI != nil || len(fired) != 0 {
					t.Fatalf("trip past the end (%d) fired %v: vm=%v interp=%v", at, fired, errV, errI)
				}
				continue
			}
			if len(fired) != 2 || fired[0] != fired[1] {
				t.Fatalf("trip at %d: fired in %v, want once per executor in one function", at, fired)
			}
			want := "tripped in " + fired[0]
			if fired[0] != "main" {
				want = "main: t6 = add(a, i): " + want
			}
			if errV == nil || errI == nil || errV.Error() != want || errI.Error() != want {
				t.Fatalf("trip at %d: want %q from both, got vm=%v interp=%v", at, want, errV, errI)
			}
			if mv.Steps() != at || mi.Steps() != at || outV != outI {
				t.Fatalf("trip at %d: stopped at vm=%d interp=%d with output vm=%q interp=%q", at, mv.Steps(), mi.Steps(), outV, outI)
			}
			fired = nil
			assertParity(t, prog, mk(false))
			if len(fired) != 2 {
				t.Fatalf("nil-returning trip at %d fired %d times, want once per executor", at, len(fired))
			}
		}
	}
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

// TestFootprintParity: both executors must feed the reference run's
// observer (depprof.Builder, through Config.Tracer) identically — per loop
// the same invocations, iterations at every block, disjointness and
// re-entry — on a program with nested loops, a callee loop run from inside
// another loop, a recursive function that re-enters its own loop, a return
// from inside a loop, a silent store and a zero-trip loop. The observer's
// evidence on those shapes is pinned too.
func TestFootprintParity(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "loops", "loopshapes.mc"))
	if err != nil {
		t.Fatal(err)
	}
	prog := compile(t, string(src))
	main := prog.Func("main")
	run := func(exec func(c interp.Config) error) *depprof.Builder {
		b := depprof.NewBuilder(prog, false)
		var out strings.Builder
		if err := exec(interp.Config{Out: &out, Tracer: b}); err != nil {
			t.Fatal(err)
		}
		return b
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
			loops[fmt.Sprintf("%s:%d", fn.Name, l.Header.Pos.Line)] = loopAt{fn, l.Index, fn.Position(l.Header)}
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

// event is one tracer callback as an executor raised it.
type event struct {
	kind  string
	fn    *ir.Func
	block *ir.Block
	in    ir.Instr
	obj   int64
	idx   int
	depth int
}

func (e event) String() string {
	s := e.kind
	if e.fn != nil {
		s += " " + e.fn.Name
	}
	if e.block != nil {
		s += " " + e.block.Name
	}
	if e.in != nil {
		s += fmt.Sprintf(" %q obj %d[%d]", e.in, e.obj, e.idx)
	}
	return s + fmt.Sprintf(" depth %d", e.depth)
}

// eventLog records every tracer event in order.
type eventLog struct{ events []event }

func (l *eventLog) add(kind string, fr *interp.Frame, b *ir.Block, in ir.Instr, obj *ir.Object, idx int) {
	e := event{kind: kind, fn: fr.Fn, block: b, in: in, idx: idx, depth: fr.Depth}
	if obj != nil {
		e.obj = obj.ID
	}
	l.events = append(l.events, e)
}

func (l *eventLog) OnBlock(fr *interp.Frame, b *ir.Block) { l.add("block", fr, b, nil, nil, 0) }
func (l *eventLog) OnLoad(fr *interp.Frame, in *ir.Load, obj *ir.Object, idx int) {
	l.add("load", fr, nil, in, obj, idx)
}
func (l *eventLog) OnStore(fr *interp.Frame, in *ir.Store, obj *ir.Object, idx int) {
	l.add("store", fr, nil, in, obj, idx)
}
func (l *eventLog) OnCall(fr *interp.Frame) { l.add("call", fr, nil, nil, nil, 0) }
func (l *eventLog) OnRet(fr *interp.Frame)  { l.add("ret", fr, nil, nil, nil, 0) }

// assertSameEvents runs prog on both executors under an event log and a
// step budget and demands identical event streams and errors.
func assertSameEvents(t *testing.T, name string, prog *ir.Program, maxSteps int64) {
	t.Helper()
	var lv, li eventLog
	logs := []*eventLog{&lv, &li} // runBoth configures the VM first
	_, _, _, _, errV, errI := runBoth(t, prog, func(out *strings.Builder) interp.Config {
		l := logs[0]
		logs = logs[1:]
		return interp.Config{Out: out, MaxSteps: maxSteps, Tracer: l}
	})
	if (errV == nil) != (errI == nil) || errV != nil && errV.Error() != errI.Error() {
		t.Fatalf("%s budget %d: errors diverge: vm %v, interp %v", name, maxSteps, errV, errI)
	}
	for i := range min(len(lv.events), len(li.events)) {
		if lv.events[i] != li.events[i] {
			t.Fatalf("%s budget %d: event %d: vm %s, interp %s", name, maxSteps, i, lv.events[i], li.events[i])
		}
	}
	if len(lv.events) != len(li.events) || len(li.events) == 0 {
		t.Fatalf("%s budget %d: vm raised %d events, interp %d", name, maxSteps, len(lv.events), len(li.events))
	}
}

// TestTracerEventParity: the VM raises a Tracer's events at the
// tree-walker's points and in its order — block entries, calls after the
// frame is set up, returns, every load (the fused load+binop's included)
// and every store — with the same function, block, instruction, object
// and index, on the loop-shape corpus, a callee-heavy program, fuzzgen
// seeds, runs whose step budget trips mid-block, and runs that fault.
func TestTracerEventParity(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "loops", "loopshapes.mc"))
	if err != nil {
		t.Fatal(err)
	}
	shapes := compile(t, string(src))
	calls := compile(t, `
func touch(a []int, i int) { a[i] = a[i] + 1; }
func main() {
	var a []int = new [4]int;
	for (var i int = 0; i < 4; i++) { touch(a, i); }
	print(a[3]);
}`)
	assertSameEvents(t, "calls", calls, 0)
	assertSameEvents(t, "loopshapes", shapes, 0)
	for budget := int64(1); budget <= 400; budget++ {
		assertSameEvents(t, "loopshapes", shapes, budget)
	}
	for seed := int64(1); seed <= 200; seed++ {
		prog := compile(t, fuzzgen.New(seed).Render())
		assertSameEvents(t, fmt.Sprintf("fuzz seed %d", seed), prog, 0)
		assertSameEvents(t, fmt.Sprintf("fuzz seed %d", seed), prog, 5000+seed)
	}
	for name, src := range map[string]string{
		"div-zero":   `func f(x int) int { var z int = 0; return x / z; } func main() { var a []int = new [2]int; for (var i int = 0; i < 2; i++) { a[i] = f(i); } }`,
		"oob-store":  `func main() { var a []int = new [4]int; for (var i int = 0; i < 8; i++) { a[i] = a[0] + i; } }`,
		"nil-deref":  `struct N { v int; } func main() { var n *N = nil; print(n->v); }`,
		"fused-load": `func main() { var a []int = new [4]int; var s int = 0; for (var i int = 0; i < 6; i++) { s = s + a[i]; } print(s); }`,
	} {
		assertSameEvents(t, name, compile(t, src), 0)
	}
}
