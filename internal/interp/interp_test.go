package interp_test

import (
	"strings"
	"testing"

	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
)

// run compiles and executes src, returning printed output.
func run(t *testing.T, src string) string {
	t.Helper()
	prog, err := irbuild.Compile("test.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out strings.Builder
	if _, err := interp.Run(prog, interp.Config{Out: &out}); err != nil {
		t.Fatalf("run: %v\nIR:\n%s", err, prog)
	}
	return out.String()
}

func TestArithmeticAndPrint(t *testing.T) {
	got := run(t, `
func main() {
	var x int = 6;
	var y int = 7;
	print(x * y, x + y, x - y, y / x, y % x);
	var f float = 1.5;
	print(f * 2.0);
	print(3 << 2, 12 >> 1, 6 & 3, 6 | 3, 6 ^ 3);
}`)
	want := "42 13 -1 1 1\n3\n12 6 2 7 5\n"
	if got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestControlFlow(t *testing.T) {
	got := run(t, `
func main() {
	var s int = 0;
	for (var i int = 0; i < 10; i++) {
		if (i % 2 == 0) { s += i; } else { s -= 1; }
	}
	print(s);
	var n int = 0;
	while (n < 100) {
		n += 7;
		if (n > 50) { break; }
	}
	print(n);
}`)
	if got != "15\n56\n" {
		t.Errorf("output = %q", got)
	}
}

func TestShortCircuit(t *testing.T) {
	// The second operand of && must not run when the first is false:
	// indexing out of bounds would error.
	got := run(t, `
func main() {
	var a []int = new [3]int;
	var i int = 5;
	if (i < 3 && a[i] == 0) { print("bad"); } else { print("ok"); }
	if (i >= 3 || a[i] == 0) { print("ok2"); }
	var b bool = i < 3 && a[0] == 0;
	print(b);
}`)
	if got != "ok\nok2\nfalse\n" {
		t.Errorf("output = %q", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	got := run(t, `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
func main() { print(fib(15)); }`)
	if got != "610\n" {
		t.Errorf("fib output = %q", got)
	}
}

func TestArrays(t *testing.T) {
	got := run(t, `
func main() {
	var a []int = new [8]int;
	for (var i int = 0; i < len(a); i++) { a[i] = i * i; }
	var s int = 0;
	for (var i int = 0; i < len(a); i++) { s += a[i]; }
	print(s, len(a));
}`)
	if got != "140 8\n" {
		t.Errorf("output = %q", got)
	}
}

func TestLinkedList(t *testing.T) {
	got := run(t, `
struct Node { val int; next *Node; }
func main() {
	var head *Node = nil;
	for (var i int = 0; i < 5; i++) {
		var n *Node = new Node;
		n->val = i + 1;
		n->next = head;
		head = n;
	}
	var s int = 0;
	var p *Node = head;
	while (p != nil) {
		s += p->val;
		p = p->next;
	}
	print(s);
}`)
	if got != "15\n" {
		t.Errorf("output = %q", got)
	}
}

func TestStructFieldsAndNestedLoops(t *testing.T) {
	got := run(t, `
struct Point { x float; y float; }
func dist2(p *Point) float { return p->x * p->x + p->y * p->y; }
func main() {
	var ps []*Point = new [4]*Point;
	for (var i int = 0; i < 4; i++) {
		var p *Point = new Point;
		p->x = float(i);
		p->y = float(i) * 2.0;
		ps[i] = p;
	}
	var total float = 0.0;
	for (var i int = 0; i < 4; i++) { total += dist2(ps[i]); }
	print(total);
}`)
	if got != "70\n" {
		t.Errorf("output = %q", got)
	}
}

func TestBuiltins(t *testing.T) {
	got := run(t, `
func main() {
	print(sqrt(9.0), abs(-4), fabs(-1.5), int(3.9), float(2), pow(2.0, 10.0));
}`)
	if got != "3 4 1.5 3 2 1024\n" {
		t.Errorf("output = %q", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"nil deref", `struct N { v int; } func main() { var p *N = nil; print(p->v); }`, "nil dereference"},
		{"div zero", `func main() { var z int = 0; print(1 / z); }`, "division by zero"},
		{"oob", `func main() { var a []int = new [2]int; a[5] = 1; }`, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := irbuild.Compile("t.mc", c.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, err = interp.Run(prog, interp.Config{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestStepBudget(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `func main() { while (true) { } }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = interp.Run(prog, interp.Config{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v, want budget error", err)
	}
}

// traceRecorder counts tracer events.
type traceRecorder struct {
	blocks, loads, stores, calls, rets int
}

func (tr *traceRecorder) OnBlock(_ *interp.Frame, _ *ir.Block)                      { tr.blocks++ }
func (tr *traceRecorder) OnLoad(_ *interp.Frame, _ *ir.Load, _ *ir.Object, _ int)   { tr.loads++ }
func (tr *traceRecorder) OnStore(_ *interp.Frame, _ *ir.Store, _ *ir.Object, _ int) { tr.stores++ }
func (tr *traceRecorder) OnCall(_ *interp.Frame)                                    { tr.calls++ }
func (tr *traceRecorder) OnRet(_ *interp.Frame)                                     { tr.rets++ }

func TestTracerEvents(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func touch(a []int, i int) { a[i] = a[i] + 1; }
func main() {
	var a []int = new [4]int;
	for (var i int = 0; i < 4; i++) { touch(a, i); }
	print(a[3]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr := &traceRecorder{}
	if _, err := interp.Run(prog, interp.Config{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.calls != tr.rets {
		t.Errorf("calls %d != rets %d", tr.calls, tr.rets)
	}
	if tr.calls != 5 { // main + 4 touch
		t.Errorf("calls = %d, want 5", tr.calls)
	}
	if tr.loads != 5 || tr.stores != 4 { // 4 loads in touch + 1 in print; 4 stores
		t.Errorf("loads=%d stores=%d, want 5/4", tr.loads, tr.stores)
	}
	if tr.blocks == 0 {
		t.Error("no block events")
	}
}

func TestNoLoopsAnalysisEdge(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `func main() { print(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 2 {
		t.Errorf("steps = %d", res.Steps)
	}
}
