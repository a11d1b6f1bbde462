package parallel_test

import (
	"strings"
	"testing"

	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/irbuild"
	"dca/internal/parallel"
)

// runBoth executes src sequentially and with the given loop parallelized,
// returning both outputs.
func runBoth(t *testing.T, src, fn string, loopIdx, workers int) (seq, par string) {
	t.Helper()
	prog, err := irbuild.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var seqOut strings.Builder
	if _, err := interp.Run(prog, interp.Config{Out: &seqOut}); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	inst, err := instrument.Loop(prog, fn, loopIdx)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	var parOut strings.Builder
	res, err := parallel.RunLoop(inst, parallel.Options{Workers: workers, Out: &parOut})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if res.Iterations == 0 {
		t.Fatalf("no iterations ran in parallel")
	}
	return seqOut.String(), parOut.String()
}

func TestParallelDoall(t *testing.T) {
	seq, par := runBoth(t, `
func main() {
	var a []int = new [1000]int;
	for (var i int = 0; i < 1000; i++) { a[i] = i * 3 + 1; }
	var s int = 0;
	for (var i int = 0; i < 1000; i++) { s += a[i]; }
	print(s);
}`, "main", 0, 8)
	if seq != par {
		t.Errorf("parallel doall output %q != sequential %q", par, seq)
	}
}

func TestParallelScalarReduction(t *testing.T) {
	seq, par := runBoth(t, `
func main() {
	var a []int = new [5000]int;
	for (var i int = 0; i < 5000; i++) { a[i] = (i * 7) % 13; }
	var s int = 0;
	for (var i int = 0; i < 5000; i++) { s += a[i] * a[i]; }
	print(s);
}`, "main", 1, 8)
	if seq != par {
		t.Errorf("parallel reduction output %q != sequential %q", par, seq)
	}
}

func TestParallelPLDSMap(t *testing.T) {
	seq, par := runBoth(t, `
struct Node { val int; next *Node; }
func main() {
	var head *Node = nil;
	for (var i int = 0; i < 500; i++) {
		var n *Node = new Node;
		n->val = i;
		n->next = head;
		head = n;
	}
	var p *Node = head;
	while (p != nil) {
		p->val = p->val * 2 + 1;
		p = p->next;
	}
	var s int = 0;
	p = head;
	while (p != nil) { s += p->val; p = p->next; }
	print(s);
}`, "main", 1, 4)
	if seq != par {
		t.Errorf("parallel PLDS map output %q != sequential %q", par, seq)
	}
}

// TestRefusesOrderedCommit: a last-writer-wins scalar cannot be privatized.
func TestRefusesOrderedCommit(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func main() {
	var last int = 0;
	for (var i int = 0; i < 10; i++) { last = i * 2; }
	print(last);
}`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := instrument.Loop(prog, "main", 0)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	_, err = parallel.RunLoop(inst, parallel.Options{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "ordered commit") {
		t.Errorf("expected ordered-commit refusal, got %v", err)
	}
}

func TestParallelProductReduction(t *testing.T) {
	seq, par := runBoth(t, `
func main() {
	var p int = 1;
	for (var i int = 1; i <= 12; i++) { p *= i; }
	print(p);
}`, "main", 0, 3)
	if seq != par {
		t.Errorf("parallel product %q != sequential %q", par, seq)
	}
}

func TestWorkerCountClamped(t *testing.T) {
	// More workers than iterations must still work.
	seq, par := runBoth(t, `
func main() {
	var a []int = new [3]int;
	for (var i int = 0; i < 3; i++) { a[i] = i + 10; }
	print(a[0] + a[1] + a[2]);
}`, "main", 0, 16)
	if seq != par {
		t.Errorf("clamped workers output %q != %q", par, seq)
	}
}

func TestExplicitChunkSchedule(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func main() {
	var a []int = new [100]int;
	for (var i int = 0; i < 100; i++) { a[i] = i * i; }
	var s int = 0;
	for (var i int = 0; i < 100; i++) { s += a[i]; }
	print(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	var seq strings.Builder
	if _, err := interp.Run(prog, interp.Config{Out: &seq}); err != nil {
		t.Fatal(err)
	}
	inst, err := instrument.Loop(prog, "main", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 100, 1000} {
		var par strings.Builder
		if _, err := parallel.RunLoop(inst, parallel.Options{Workers: 4, Chunk: chunk, Out: &par}); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if par.String() != seq.String() {
			t.Errorf("chunk %d: output %q != %q", chunk, par.String(), seq.String())
		}
	}
}

// TestWorkerAllocationsOutliveSection: objects a worker allocates and links
// into the shared heap stay valid after the parallel section, across later
// sections and across the driver's own allocations in between, so a
// worker's machine must not be recycled before the driver's run returns.
func TestWorkerAllocationsOutliveSection(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
struct Cell { v int; w int; }
func fill(cells []*Cell, base int) {
	for (var i int = 0; i < 40; i++) {
		var c *Cell = new Cell;
		c->v = base + i;
		c->w = i * 3 + 1;
		cells[i] = c;
	}
}
func main() {
	var a []*Cell = new [40]*Cell;
	var b []*Cell = new [40]*Cell;
	var c []*Cell = new [40]*Cell;
	fill(a, 0);
	var junk []*Cell = new [40]*Cell;
	for (var i int = 0; i < 40; i++) { junk[i] = new Cell; junk[i]->v = -1; }
	fill(b, 1000);
	for (var i int = 0; i < 40; i++) { junk[i] = new Cell; junk[i]->w = -2; }
	fill(c, 5000);
	var s int = 0;
	for (var i int = 0; i < 40; i++) {
		s += a[i]->v * 7 + a[i]->w + b[i]->v * 11 + b[i]->w + c[i]->v * 13 + c[i]->w;
	}
	print(s);
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var seq strings.Builder
	if _, err := interp.Run(prog, interp.Config{Out: &seq}); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	inst, err := instrument.Loop(prog, "fill", 0)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		var par strings.Builder
		res, err := parallel.RunLoop(inst, parallel.Options{Workers: workers, Out: &par})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if res.Invocations != 3 || res.Iterations != 120 {
			t.Errorf("%d workers: %d invocations, %d iterations; want 3 and 120", workers, res.Invocations, res.Iterations)
		}
		if par.String() != seq.String() {
			t.Errorf("%d workers: output %q, sequential %q", workers, par.String(), seq.String())
		}
	}
}
