package sandbox_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dca/internal/dcart"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/sandbox"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := irbuild.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestCleanRun(t *testing.T) {
	prog := compile(t, `func main() { var s int = 0; for (var i int = 0; i < 10; i++) { s += i; } print(s); }`)
	var out strings.Builder
	oc := sandbox.Run(nil, prog, interp.Config{Out: &out}, sandbox.Limits{}, nil)
	if !oc.OK() {
		t.Fatalf("trap on clean run: %v", oc.Trap)
	}
	if out.String() != "45\n" {
		t.Errorf("output = %q, want 45", out.String())
	}
	if oc.Result == nil || oc.Result.Steps == 0 {
		t.Errorf("missing result: %+v", oc.Result)
	}
}

func TestFaultClassification(t *testing.T) {
	prog := compile(t, `func main() { var z int = 0; print(1 / z); }`)
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, nil)
	if oc.OK() || oc.Trap.Kind != sandbox.Fault {
		t.Fatalf("want Fault trap, got %+v", oc.Trap)
	}
	if !strings.Contains(oc.Trap.Error(), "division by zero") {
		t.Errorf("trap error = %v", oc.Trap)
	}
}

func TestStepBudgetClassification(t *testing.T) {
	prog := compile(t, `func main() { while (true) { } }`)
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{MaxSteps: 500}, nil)
	if oc.OK() || oc.Trap.Kind != sandbox.Budget {
		t.Fatalf("want Budget trap, got %+v", oc.Trap)
	}
	var be *interp.BudgetError
	if !errors.As(oc.Trap.Err, &be) {
		t.Fatalf("want *interp.BudgetError, got %T: %v", oc.Trap.Err, oc.Trap.Err)
	}
	if be.Fn != "main" || be.Block == "" || be.Steps == 0 || be.Resource != "steps" {
		t.Errorf("budget error missing site info: %+v", be)
	}
}

func TestHeapBudget(t *testing.T) {
	prog := compile(t, `
struct N { v int; }
func main() {
	for (var i int = 0; i < 1000; i++) { var n *N = new N; n->v = i; }
}`)
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{MaxHeapObjects: 10}, nil)
	if oc.OK() || oc.Trap.Kind != sandbox.Budget {
		t.Fatalf("want Budget trap, got %+v", oc.Trap)
	}
	if !strings.Contains(oc.Trap.Err.Error(), "heap-objects") {
		t.Errorf("trap error = %v", oc.Trap.Err)
	}
}

func TestOutputBudget(t *testing.T) {
	prog := compile(t, `func main() { for (var i int = 0; i < 10000; i++) { print(i); } }`)
	var out strings.Builder
	oc := sandbox.Run(nil, prog, interp.Config{Out: &out}, sandbox.Limits{MaxOutput: 64}, nil)
	if oc.OK() || oc.Trap.Kind != sandbox.Budget {
		t.Fatalf("want Budget trap, got %+v", oc.Trap)
	}
	if !strings.Contains(oc.Trap.Err.Error(), "output-bytes") {
		t.Errorf("trap error = %v", oc.Trap.Err)
	}
	if int64(len(out.String())) > 64 {
		t.Errorf("wrote %d bytes past the budget", len(out.String()))
	}
}

func TestTimeoutClassification(t *testing.T) {
	prog := compile(t, `func main() { while (true) { } }`)
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{Timeout: 20 * time.Millisecond}, nil)
	if oc.OK() || oc.Trap.Kind != sandbox.Timeout {
		t.Fatalf("want Timeout trap, got %+v", oc.Trap)
	}
	if !errors.Is(oc.Trap.Err, interp.ErrCancelled) {
		t.Errorf("timeout error does not match ErrCancelled: %v", oc.Trap.Err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	prog := compile(t, `func main() { print(1); }`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	oc := sandbox.Run(ctx, prog, interp.Config{}, sandbox.Limits{}, nil)
	if oc.OK() || oc.Trap.Kind != sandbox.Timeout {
		t.Fatalf("want Timeout trap for pre-cancelled context, got %+v", oc.Trap)
	}
}

func TestInjectPanicAtStep(t *testing.T) {
	prog := compile(t, `func main() { var s int = 0; for (var i int = 0; i < 100; i++) { s += i; } print(s); }`)
	inj := sandbox.NewInjector(sandbox.Inject{AtStep: 50, Kind: sandbox.Panic})
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, inj)
	if oc.OK() || oc.Trap.Kind != sandbox.Panic {
		t.Fatalf("want Panic trap, got %+v", oc.Trap)
	}
	if oc.Trap.Stack == "" {
		t.Errorf("panic trap lost its stack")
	}
	if inj.Trips() != 1 {
		t.Errorf("trips = %d, want 1", inj.Trips())
	}
}

func TestInjectFaultAtStep(t *testing.T) {
	prog := compile(t, `func main() { var s int = 0; for (var i int = 0; i < 100; i++) { s += i; } print(s); }`)
	inj := sandbox.NewInjector(sandbox.Inject{AtStep: 50, Kind: sandbox.Fault})
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, inj)
	if oc.OK() || oc.Trap.Kind != sandbox.Fault {
		t.Fatalf("want Fault trap, got %+v", oc.Trap)
	}
	if !strings.Contains(oc.Trap.Err.Error(), "injected fault") {
		t.Errorf("trap error = %v", oc.Trap.Err)
	}
	if oc.Trap.Steps != 50 {
		t.Errorf("trapped at step %d, want 50", oc.Trap.Steps)
	}
}

// TestInjectAtTerminatorStep: AtStep on a block terminator's step traps at
// that step, not at the next instruction, and the sandboxed VM run stops
// with the tree-walker's error at the tree-walker's step.
func TestInjectAtTerminatorStep(t *testing.T) {
	prog := compile(t, `func main() { var s int = 0; for (var i int = 0; i < 100; i++) { s += i; } print(s); }`)
	// Steps 1 and 2 are the entry block's two moves; step 3 is its goto.
	spec := sandbox.Inject{AtStep: 3, Kind: sandbox.Fault}
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, sandbox.NewInjector(spec))
	if oc.OK() || oc.Trap.Kind != sandbox.Fault || oc.Trap.Steps != 3 {
		t.Fatalf("want a Fault trap at step 3, got %+v", oc.Trap)
	}
	it := interp.New(prog, interp.Config{Trip: sandbox.NewInjector(spec).StepTrip()})
	_, err := it.Call(prog.Func("main"), nil, nil)
	if err == nil || err.Error() != oc.Trap.Err.Error() || it.Steps() != oc.Trap.Steps {
		t.Errorf("tree-walker stopped at step %d with %v; sandbox at %d with %v", it.Steps(), err, oc.Trap.Steps, oc.Trap.Err)
	}
}

func TestInjectBudgetAtStep(t *testing.T) {
	prog := compile(t, `func main() { var s int = 0; for (var i int = 0; i < 100; i++) { s += i; } print(s); }`)
	inj := sandbox.NewInjector(sandbox.Inject{AtStep: 50, Kind: sandbox.Budget})
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, inj)
	if oc.OK() || oc.Trap.Kind != sandbox.Budget {
		t.Fatalf("want Budget trap, got %+v", oc.Trap)
	}
	if !errors.Is(oc.Trap.Err, interp.ErrBudget) {
		t.Errorf("injected budget trap does not match ErrBudget: %v", oc.Trap.Err)
	}
	if oc.Trap.Steps != 50 {
		t.Errorf("trapped at step %d, want 50", oc.Trap.Steps)
	}
}

func TestInjectMaxTrips(t *testing.T) {
	prog := compile(t, `func main() { var s int = 0; for (var i int = 0; i < 100; i++) { s += i; } print(s); }`)
	inj := sandbox.NewInjector(sandbox.Inject{AtStep: 50, Kind: sandbox.Fault, MaxTrips: 1})
	if oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, inj); oc.OK() {
		t.Fatalf("first run should trap")
	}
	// The budget of trips is spent: the second run must complete.
	if oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, inj); !oc.OK() {
		t.Fatalf("second run should be clean, got %v", oc.Trap)
	}
	if inj.Trips() != 1 {
		t.Errorf("trips = %d, want 1", inj.Trips())
	}
}

func TestInjectAtIntrinsic(t *testing.T) {
	prog := compile(t, `
func main() {
	var s int = 0;
	for (var i int = 0; i < 20; i++) { s += i; }
	print(s);
}`)
	inst, err := instrument.Loop(prog, "main", 0)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	inj := sandbox.NewInjector(sandbox.Inject{AtIntrinsic: 5, Kind: sandbox.Fault})
	rt := dcart.NewRuntime(dcart.Identity{})
	oc := sandbox.Run(nil, inst.Prog, interp.Config{Runtime: rt}, sandbox.Limits{}, inj)
	if oc.OK() || oc.Trap.Kind != sandbox.Fault {
		t.Fatalf("want Fault trap at intrinsic, got %+v", oc.Trap)
	}
	if !strings.Contains(oc.Trap.Err.Error(), "injected fault at @rt_") {
		t.Errorf("trap error = %v", oc.Trap.Err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want sandbox.Kind
	}{
		{nil, sandbox.None},
		{interp.ErrBudget, sandbox.Budget},
		{&interp.BudgetError{Resource: "steps"}, sandbox.Budget},
		{interp.ErrCancelled, sandbox.Timeout},
		{&interp.CancelError{Cause: context.Canceled}, sandbox.Timeout},
		{errors.New("nil dereference"), sandbox.Fault},
	}
	for _, c := range cases {
		if got := sandbox.Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var inj *sandbox.Injector
	if inj.Enabled() {
		t.Error("nil injector reports enabled")
	}
	if inj.Trips() != 0 {
		t.Error("nil injector has trips")
	}
}
