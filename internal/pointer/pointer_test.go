package pointer_test

import (
	"sync"
	"testing"

	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/pointer"
	"dca/internal/types"
)

func analyze(t *testing.T, src string) (*ir.Program, *pointer.Analysis) {
	t.Helper()
	prog, err := irbuild.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, pointer.Analyze(prog)
}

func local(prog *ir.Program, fn, name string) *ir.Local {
	for _, l := range prog.Func(fn).Locals {
		if l.Name == name {
			return l
		}
	}
	return nil
}

func TestDistinctAllocationSites(t *testing.T) {
	prog, pa := analyze(t, `
func main() {
	var a []int = new [4]int;
	var b []int = new [4]int;
	a[0] = 1;
	b[0] = 2;
	print(a[0] + b[0]);
}`)
	pa1 := pa.PointsTo(local(prog, "main", "a"))
	pa2 := pa.PointsTo(local(prog, "main", "b"))
	if len(pa1) != 1 || len(pa2) != 1 {
		t.Fatalf("points-to sizes: %d, %d", len(pa1), len(pa2))
	}
	if pa1[0] == pa2[0] {
		t.Error("distinct allocations must have distinct sites")
	}
}

func TestFlowThroughMovesAndCalls(t *testing.T) {
	prog, pa := analyze(t, `
func pass(x []int) []int { return x; }
func main() {
	var a []int = new [4]int;
	var b []int = pass(a);
	b[0] = 1;
	print(a[0]);
}`)
	sa := pa.PointsTo(local(prog, "main", "a"))
	sb := pa.PointsTo(local(prog, "main", "b"))
	if len(sb) == 0 || len(sa) == 0 || sa[0] != sb[0] {
		t.Errorf("call-return flow broken: a=%v b=%v", sa, sb)
	}
}

func TestFieldSensitivity(t *testing.T) {
	prog, pa := analyze(t, `
struct Pair { fst []int; snd []int; }
func main() {
	var p *Pair = new Pair;
	p->fst = new [2]int;
	p->snd = new [2]int;
	var x []int = p->fst;
	var y []int = p->snd;
	x[0] = 1;
	y[0] = 2;
	print(x[0] + y[0]);
}`)
	sx := pa.PointsTo(local(prog, "main", "x"))
	sy := pa.PointsTo(local(prog, "main", "y"))
	if len(sx) != 1 || len(sy) != 1 {
		t.Fatalf("pts sizes: %d %d", len(sx), len(sy))
	}
	if sx[0] == sy[0] {
		t.Error("field-sensitive analysis must keep fst and snd apart")
	}
}

func TestHeapChainTraversal(t *testing.T) {
	prog, pa := analyze(t, `
struct N { v int; next *N; }
func main() {
	var head *N = nil;
	for (var i int = 0; i < 3; i++) {
		var n *N = new N;
		n->next = head;
		head = n;
	}
	var p *N = head;
	while (p != nil) { p = p->next; }
	print(0);
}`)
	sp := pa.PointsTo(local(prog, "main", "p"))
	sh := pa.PointsTo(local(prog, "main", "head"))
	if len(sp) == 0 || len(sh) == 0 {
		t.Fatal("empty points-to for chain")
	}
	// p reaches whatever head reaches (one site: the single new N).
	if sp[0] != sh[0] {
		t.Errorf("p=%v head=%v", sp, sh)
	}
}

func TestModRefSummaries(t *testing.T) {
	prog, pa := analyze(t, `
func writer(a []int, i int) { a[i] = i; }
func reader(a []int, i int) int { return a[i]; }
func outer(a []int) { writer(a, 0); }
func main() {
	var a []int = new [4]int;
	outer(a);
	print(reader(a, 0));
}`)
	w := pa.Summary(prog.Func("writer"))
	r := pa.Summary(prog.Func("reader"))
	o := pa.Summary(prog.Func("outer"))
	if len(w.Writes) == 0 || len(w.Reads) != 0 {
		t.Errorf("writer summary: %+v", w)
	}
	if len(r.Reads) == 0 || len(r.Writes) != 0 {
		t.Errorf("reader summary: %+v", r)
	}
	if len(o.Writes) == 0 {
		t.Error("outer must inherit writer's effects transitively")
	}
	if !o.Writes.Intersects(r.Reads) {
		t.Error("outer writes must intersect reader reads (same array)")
	}
}

func TestAccessRegions(t *testing.T) {
	prog, pa := analyze(t, `
func main() {
	var a []int = new [4]int;
	a[1] = 5;
	print(a[1]);
}`)
	var regions int
	for _, b := range prog.Func("main").Blocks {
		for _, in := range b.Instrs {
			regions += len(pa.AccessRegions(in))
		}
	}
	if regions < 2 {
		t.Errorf("expected regions for the store and load, got %d", regions)
	}
}

func TestRegionSetOps(t *testing.T) {
	_, pa := analyze(t, `func main() { var a []int = new [2]int; a[0] = 1; print(a[0]); }`)
	if len(pa.Sites) != 1 {
		t.Fatalf("sites = %d", len(pa.Sites))
	}
	r1 := pointer.Region{Site: pa.Sites[0], Field: pointer.ArrayField}
	r2 := pointer.Region{Site: pa.Sites[0], Field: 0}
	s := pointer.RegionSet{}
	if !s.Add(r1) || s.Add(r1) {
		t.Error("Add growth reporting")
	}
	other := pointer.RegionSet{r2: true}
	if s.Intersects(other) {
		t.Error("distinct fields must not intersect")
	}
	other.Add(r1)
	if !s.Intersects(other) {
		t.Error("shared region must intersect")
	}
	if got := s.Sorted(); len(got) != 1 || got[0] != r1 {
		t.Errorf("Sorted = %v", got)
	}
}

// TestConcurrentQueriesOnSharedAnalysis: one analysis, shared the way
// pointer.Of shares it between engine workers, is queried from several
// goroutines about locals it holds no entry for: the parameters of a
// function nothing calls, and accesses through them. Queries must only
// read the analysis; run under -race.
func TestConcurrentQueriesOnSharedAnalysis(t *testing.T) {
	prog, pa := analyze(t, `
struct Node { v int; next *Node; }
func unused(a []int, n *Node) { }
func main() { print(1); }`)
	fn := prog.Func("unused")
	a, n := fn.Params[0], fn.Params[1]
	accesses := []ir.Instr{
		&ir.Load{Dst: &ir.Local{Name: "t", Type: types.IntType}, Base: ir.LocalOp(a), Index: ir.IntOp(0)},
		&ir.Store{Base: ir.LocalOp(n), Index: ir.IntOp(0), Src: ir.IntOp(1), FieldName: "v"},
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range fn.Params {
				if s := pa.PointsTo(p); len(s) != 0 {
					t.Errorf("PointsTo(%s) = %v, want none", p.Name, s)
				}
			}
			for _, in := range accesses {
				if r := pa.AccessRegions(in); len(r) != 0 {
					t.Errorf("AccessRegions(%s) = %v, want none", in, r)
				}
			}
		}()
	}
	wg.Wait()
}
