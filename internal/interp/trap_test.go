package interp_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dca/internal/interp"
	"dca/internal/irbuild"
)

// TestBudgetErrorDetail: ErrBudget is no longer a bare sentinel — the error
// names the function, block, and step count at exhaustion.
func TestBudgetErrorDetail(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func spin() { while (true) { } }
func main() { spin(); }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = interp.Run(prog, interp.Config{MaxSteps: 1000})
	if !errors.Is(err, interp.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget match", err)
	}
	var be *interp.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BudgetError", err)
	}
	if be.Fn != "spin" {
		t.Errorf("Fn = %q, want spin", be.Fn)
	}
	if be.Block == "" {
		t.Errorf("Block is empty")
	}
	if be.Steps <= 1000 && be.Steps != 1001 {
		t.Errorf("Steps = %d, want just past the 1000 budget", be.Steps)
	}
	for _, part := range []string{"spin", "1000", "steps budget"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q missing %q", err.Error(), part)
		}
	}
}

func TestCancellation(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `func main() { while (true) { } }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := interp.Run(prog, interp.Config{Ctx: ctx})
		done <- err
	}()
	cancel()
	err = <-done
	if !errors.Is(err, interp.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled match", err)
	}
	var ce *interp.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause not exposed: %v", err)
	}
}

func TestHeapObjectBudget(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
struct N { v int; }
func main() { for (var i int = 0; i < 100; i++) { var n *N = new N; n->v = i; } }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = interp.Run(prog, interp.Config{MaxHeapObjects: 5})
	if !errors.Is(err, interp.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget match", err)
	}
	var be *interp.BudgetError
	if !errors.As(err, &be) || be.Resource != "heap-objects" {
		t.Errorf("err = %v, want heap-objects budget error", err)
	}
}

func TestOutputBudget(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `func main() { for (var i int = 0; i < 1000; i++) { print("xxxxxxxxxx"); } }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out strings.Builder
	_, err = interp.Run(prog, interp.Config{Out: &out, MaxOutput: 100})
	var be *interp.BudgetError
	if !errors.As(err, &be) || be.Resource != "output-bytes" {
		t.Fatalf("err = %v, want output-bytes budget error", err)
	}
}

// TestStepTripAbort: a step trip fires once, at its step, and its error
// aborts execution unwrapped.
func TestStepTripAbort(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `func main() { var s int = 0; for (var i int = 0; i < 100; i++) { s += i; } print(s); }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	boom := errors.New("trip says stop")
	var calls int
	it := interp.New(prog, interp.Config{Trip: interp.StepTrip{At: 10, Fire: func(fn string) error {
		calls++
		if fn != "main" {
			t.Errorf("trip fired in %q, want main", fn)
		}
		return boom
	}}})
	_, err = it.Call(prog.Func("main"), nil, nil)
	if err != boom {
		t.Fatalf("err = %v, want the trip's error unwrapped", err)
	}
	if calls != 1 || it.Steps() != 10 {
		t.Errorf("trip called %d times, run stopped at step %d; want once, at 10", calls, it.Steps())
	}
}
