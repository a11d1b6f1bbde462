package sandbox_test

import (
	"context"
	"strings"
	"testing"

	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/sandbox"
)

// runBoth executes the same program through sandbox.Run, which runs the
// VM, and on the tree-walking oracle under the config Run derives from ctx
// and lim, classified the same way. It returns the two outcomes plus
// captured output.
func runBoth(t *testing.T, prog *ir.Program, ctx context.Context, lim sandbox.Limits) (vmOut, twOut *sandbox.Outcome, vmStr, twStr string) {
	t.Helper()
	var vb, tb strings.Builder
	vmOut = sandbox.Run(ctx, prog, interp.Config{Out: &vb}, lim, nil)
	it := interp.New(prog, interp.Config{Out: &tb, Ctx: ctx, MaxSteps: lim.MaxSteps,
		MaxHeapObjects: lim.MaxHeapObjects, MaxOutput: lim.MaxOutput})
	if _, err := it.Call(prog.Func("main"), nil, nil); err != nil {
		twOut = &sandbox.Outcome{Trap: &sandbox.Trap{Kind: sandbox.Classify(err), Err: err, Steps: it.Steps()}}
	} else {
		twOut = &sandbox.Outcome{Result: &interp.Result{Steps: it.Steps()}}
	}
	return vmOut, twOut, vb.String(), tb.String()
}

// TestExecutorTrapParity locks the byte-identical contract between the
// sandbox's VM runs and the tree-walking oracle: for every trap kind in
// the taxonomy, sandbox.Run must report the kind, error text,
// retired-step count at the moment the trap fired, and (possibly
// truncated) output the tree-walker produces under the same limits. It
// goes through Run's limit plumbing and trap classification, which the vm
// package's parity tests do not.
func TestExecutorTrapParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		lim  sandbox.Limits
		kind sandbox.Kind
	}{
		{
			name: "clean",
			src:  `func main() { var s int = 0; for (var i int = 0; i < 100; i++) { s += i; } print(s); }`,
			kind: sandbox.None,
		},
		{
			name: "fault-div-zero",
			src:  `func main() { var z int = 0; print(10 / z); }`,
			kind: sandbox.Fault,
		},
		{
			name: "fault-nil-deref",
			src: `
struct N { v int; }
func main() { var n *N = nil; print(n->v); }`,
			kind: sandbox.Fault,
		},
		{
			name: "fault-oob",
			src:  `func main() { var a []int = new [3]int; var i int = 7; print(a[i]); }`,
			kind: sandbox.Fault,
		},
		{
			name: "budget-steps",
			src:  `func main() { var s int = 0; while (true) { s += 1; } }`,
			lim:  sandbox.Limits{MaxSteps: 777},
			kind: sandbox.Budget,
		},
		{
			name: "budget-heap",
			src: `
struct N { v int; }
func main() { for (var i int = 0; i < 100; i++) { var n *N = new N; n->v = i; } }`,
			lim:  sandbox.Limits{MaxHeapObjects: 7},
			kind: sandbox.Budget,
		},
		{
			name: "budget-output",
			src:  `func main() { for (var i int = 0; i < 10000; i++) { print(i); } }`,
			lim:  sandbox.Limits{MaxOutput: 64},
			kind: sandbox.Budget,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := compile(t, tc.src)
			vmOut, twOut, vmStr, twStr := runBoth(t, prog, nil, tc.lim)
			assertParity(t, vmOut, twOut, vmStr, twStr, tc.kind)
		})
	}
}

// TestExecutorTimeoutParity covers the Timeout kind with a pre-cancelled
// context, the only deterministic way to trip it identically in both
// executors.
func TestExecutorTimeoutParity(t *testing.T) {
	prog := compile(t, `func main() { while (true) { } }`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vmOut, twOut, vmStr, twStr := runBoth(t, prog, ctx, sandbox.Limits{})
	assertParity(t, vmOut, twOut, vmStr, twStr, sandbox.Timeout)
}

func assertParity(t *testing.T, vmOut, twOut *sandbox.Outcome, vmStr, twStr string, kind sandbox.Kind) {
	t.Helper()
	if vmStr != twStr {
		t.Errorf("output diverges:\n  vm:   %q\n  tree: %q", vmStr, twStr)
	}
	if kind == sandbox.None {
		if !vmOut.OK() || !twOut.OK() {
			t.Fatalf("want clean runs, got vm=%+v tree=%+v", vmOut.Trap, twOut.Trap)
		}
		if vmOut.Result.Steps != twOut.Result.Steps {
			t.Errorf("step counts diverge: vm=%d tree=%d", vmOut.Result.Steps, twOut.Result.Steps)
		}
		return
	}
	if vmOut.OK() || twOut.OK() {
		t.Fatalf("want %v traps, got vm=%+v tree=%+v", kind, vmOut.Trap, twOut.Trap)
	}
	if vmOut.Trap.Kind != kind || twOut.Trap.Kind != kind {
		t.Fatalf("trap kinds: vm=%v tree=%v, want %v", vmOut.Trap.Kind, twOut.Trap.Kind, kind)
	}
	if ve, te := vmOut.Trap.Err.Error(), twOut.Trap.Err.Error(); ve != te {
		t.Errorf("trap errors diverge:\n  vm:   %s\n  tree: %s", ve, te)
	}
	if vmOut.Trap.Steps != twOut.Trap.Steps {
		t.Errorf("steps at trap diverge: vm=%d tree=%d", vmOut.Trap.Steps, twOut.Trap.Steps)
	}
}
