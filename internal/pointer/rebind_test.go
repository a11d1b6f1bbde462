package pointer_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dca/internal/cfg"
	"dca/internal/fuzzgen"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/pointer"
	"dca/internal/types"
	"dca/internal/workloads/npb"
)

type namedProg struct {
	name string
	prog *ir.Program
}

// testSources returns every string literal in the given test files that
// compiles as a MiniC program with at least one loop.
func testSources(t *testing.T, pattern string) []namedProg {
	t.Helper()
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files match %s", pattern)
	}
	var out []namedProg
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			prog, err := irbuild.Compile("t.mc", src)
			if err != nil || !hasLoop(prog) {
				return true
			}
			out = append(out, namedProg{fmt.Sprintf("%s:%d", filepath.Base(file), len(out)), prog})
			return true
		})
	}
	return out
}

func hasLoop(prog *ir.Program) bool {
	for _, fn := range prog.Funcs {
		if _, loops := cfg.LoopsOf(fn); len(loops) > 0 {
			return true
		}
	}
	return false
}

// rebindPrograms is the differential corpus: the instrument and core test
// programs, the ten NPB proxies and fuzzgen seeds 1-100.
func rebindPrograms(t *testing.T) []namedProg {
	t.Helper()
	progs := testSources(t, "../instrument/*_test.go")
	progs = append(progs, testSources(t, "../core/*_test.go")...)
	if len(progs) < 20 {
		t.Fatalf("found only %d instrument and core test programs", len(progs))
	}
	for _, spec := range npb.Specs() {
		prog, err := spec.Compile()
		if err != nil {
			t.Fatalf("compile NPB %s: %v", spec.Name, err)
		}
		progs = append(progs, namedProg{"npb/" + spec.Name, prog})
	}
	for seed := int64(1); seed <= 100; seed++ {
		prog, err := irbuild.Compile("fuzz.mc", fuzzgen.New(seed).Render())
		if err != nil {
			t.Fatalf("compile fuzzgen seed %d: %v", seed, err)
		}
		progs = append(progs, namedProg{fmt.Sprintf("fuzz/seed-%d", seed), prog})
	}
	return progs
}

// render names sites by their rendering (index, allocation and function
// name), since two analyses of one program allocate distinct Site values;
// renderings are cached per site, as the comparison asks for each many
// times.
type render map[*pointer.Site]string

func (r render) site(s *pointer.Site) string {
	name, ok := r[s]
	if !ok {
		name = s.String()
		r[s] = name
	}
	return name
}

func (r render) sites(sites []*pointer.Site) string {
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = r.site(s)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func (r render) regions(rs []pointer.Region) string {
	out := make([]string, len(rs))
	for i, reg := range rs {
		out[i] = r.site(reg.Site) + "." + strconv.Itoa(reg.Field)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func (r render) effects(mr *pointer.ModRef) string {
	if mr == nil {
		return "none"
	}
	return "reads " + r.regions(mr.Reads.Sorted()) + "; writes " + r.regions(mr.Writes.Sorted())
}

// diffViews compares every query two analyses of prog answer: PointsTo for
// every local, AccessRegions for every load and store, CallEffects for
// every call, each as a sorted set. It returns the first difference, or "".
func diffViews(prog *ir.Program, got, want *pointer.Analysis) string {
	r := render{}
	for _, fn := range prog.Funcs {
		for _, l := range fn.Locals {
			if g, w := r.sites(got.PointsTo(l)), r.sites(want.PointsTo(l)); g != w {
				return fmt.Sprintf("%s: PointsTo(%s) = [%s], want [%s]", fn.Name, l.Name, g, w)
			}
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				var g, w string
				switch i := in.(type) {
				case *ir.Load, *ir.Store:
					g, w = r.regions(got.AccessRegions(in)), r.regions(want.AccessRegions(in))
				case *ir.Call:
					g, w = r.effects(got.CallEffects(i)), r.effects(want.CallEffects(i))
				default:
					continue
				}
				if g != w {
					return fmt.Sprintf("%s: %s: got [%s], want [%s]", fn.Name, in, g, w)
				}
			}
		}
	}
	return ""
}

// TestRebindMatchesFreshAnalysis: for every loop of the corpus, the overlay
// Rebind builds over the program's shared analysis answers every query on
// the instrumenter's clone exactly as a fresh solve of that clone does.
func TestRebindMatchesFreshAnalysis(t *testing.T) {
	for _, p := range rebindPrograms(t) {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			base := pointer.Of(p.prog)
			for _, fn := range p.prog.Funcs {
				_, ls := cfg.LoopsOf(fn)
				for _, l := range ls {
					clone := p.prog.CloneShared(fn.Name)
					view := base.Rebind(clone, fn.Name)
					if view == nil {
						t.Fatalf("%s L%d: Rebind refused a structurally identical clone", fn.Name, l.Index)
					}
					if d := diffViews(clone, view, pointer.Analyze(clone)); d != "" {
						t.Fatalf("%s L%d: %s", fn.Name, l.Index, d)
					}
				}
			}
		})
	}
}

const shapeSrc = `
struct Node { v int; next *Node; }
func f(n int) *Node {
	var head *Node = nil;
	for (var i int = 0; i < n; i++) {
		var x *Node = new Node;
		x.v = i;
		x.next = head;
		head = x;
	}
	return head;
}
func main() {
	var h *Node = f(4);
	var a []int = new [4]int;
	for (var p *Node = h; p != nil; p = p.next) { a[p.v] = p.v; }
	print(a[0]);
}`

// TestRebindShapeMismatch: a clone that does not line up with the analyzed
// program yields nil, so instrument.Loop falls back to a full solve; an
// overlay rebinds again like a solved analysis.
func TestRebindShapeMismatch(t *testing.T) {
	prog, base := analyze(t, shapeSrc)
	for _, c := range []struct {
		name  string
		fn    string
		clone func() *ir.Program
	}{
		{"unknown function", "g", func() *ir.Program { return prog.CloneShared("f") }},
		{"function shared, not cloned", "f", func() *ir.Program { return prog.CloneShared("main") }},
		{"extra local", "f", func() *ir.Program {
			q := prog.CloneShared("f")
			q.Func("f").NewTemp(types.IntType)
			return q
		}},
		{"extra block", "f", func() *ir.Program {
			q := prog.CloneShared("f")
			b := q.Func("f").NewBlock("extra")
			b.Term = &ir.Goto{Target: b}
			return q
		}},
		{"allocation dropped", "f", func() *ir.Program {
			q := prog.CloneShared("f")
			for _, b := range q.Func("f").Blocks {
				for k, in := range b.Instrs {
					if al, ok := in.(*ir.Alloc); ok {
						b.Instrs[k] = &ir.Mov{Dst: al.Dst, Src: ir.ConstOp(ir.NilVal())}
					}
				}
			}
			return q
		}},
	} {
		q := c.clone()
		if base.Rebind(q, c.fn) != nil {
			t.Errorf("%s: Rebind returned a view for a mismatched clone", c.name)
		}
	}

	// An overlay of an overlay still matches a fresh solve.
	c1 := prog.CloneShared("f")
	v1 := base.Rebind(c1, "f")
	c2 := c1.CloneShared("main")
	v2 := v1.Rebind(c2, "main")
	if v1 == nil || v2 == nil {
		t.Fatal("Rebind refused a structurally identical clone")
	}
	if d := diffViews(c2, v2, pointer.Analyze(c2)); d != "" {
		t.Fatal(d)
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
