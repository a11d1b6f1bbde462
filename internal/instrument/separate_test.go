package instrument_test

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
	"dca/internal/dcart"
	"dca/internal/fuzzgen"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/purity"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
)

// corpusProg compiles one program of the separation corpus on demand, so a
// parallel subtest holds only its own program.
type corpusProg struct {
	name    string
	compile func() (*ir.Program, error)
}

// testSources returns every string literal in the files matching pattern
// that compiles as a MiniC program with at least one loop.
func testSources(t *testing.T, pattern string) []corpusProg {
	t.Helper()
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files match %s", pattern)
	}
	var out []corpusProg
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
			if prog, err := irbuild.Compile("t.mc", src); err != nil || !hasLoop(prog) {
				return true
			}
			out = append(out, corpusProg{fmt.Sprintf("%s:%d", filepath.Base(file), len(out)),
				func() (*ir.Program, error) { return irbuild.Compile("t.mc", src) }})
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

// separationCorpus is the oracle's corpus: the instrument and core test
// programs, the ten NPB proxies, the PLDS programs and fuzzgen seeds
// 1-2000.
func separationCorpus(t *testing.T) []corpusProg {
	t.Helper()
	progs := testSources(t, "*_test.go")
	progs = append(progs, testSources(t, "../core/*_test.go")...)
	if len(progs) < 20 {
		t.Fatalf("found only %d instrument and core test programs", len(progs))
	}
	for _, spec := range npb.Specs() {
		progs = append(progs, corpusProg{"npb/" + spec.Name, spec.Compile})
	}
	for _, p := range plds.Programs() {
		progs = append(progs, corpusProg{"plds/" + p.Name, p.Compile})
	}
	for seed := int64(1); seed <= 2000; seed++ {
		progs = append(progs, corpusProg{fmt.Sprintf("fuzz/seed-%d", seed), func() (*ir.Program, error) {
			return irbuild.Compile("fuzz.mc", fuzzgen.New(seed).Render())
		}})
	}
	return progs
}

// names renders locals by name, in order.
func names(ls []*ir.Local) string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.Name
	}
	return strings.Join(out, " ")
}

// describe renders what an analysis reads of a separation: the loop, B0's
// block index and P0, the iterator, environment and payload-defined locals
// and the live-out roots, all by name.
func describe(s *instrument.Separated) string {
	defs := make([]string, 0, len(s.Sep.PayloadDefSet))
	for l := range s.Sep.PayloadDefSet {
		defs = append(defs, l.Name)
	}
	sort.Strings(defs)
	return fmt.Sprintf("%s B0=%d P0=%d iter=[%s] env=[%s] defs=[%s] liveout=[%s]",
		s.LoopID, s.Sep.B0.Index, s.Sep.P0, names(s.Sep.IterLocals), names(s.Sep.EnvLocals),
		strings.Join(defs, " "), names(s.LiveOut))
}

// TestSeparateMatchesInstrumentedClone: for every loop of the corpus that
// does no I/O, Loop, which maps the program's own separation onto the
// clone, and the oracle (Rederive), which analyses and separates the clone
// afresh, either fail with the same message or build byte-identical
// programs with identical separations, live-out roots and scalar classes.
// Both clones share every function but the rewritten one with prog, so
// progText compares their Prog.String() without rendering those.
func TestSeparateMatchesInstrumentedClone(t *testing.T) {
	for _, p := range separationCorpus(t) {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			prog, err := p.compile()
			if err != nil {
				t.Fatal(err)
			}
			pur := purity.Analyze(prog)
			for _, fn := range prog.Funcs {
				_, loops := cfg.LoopsOf(fn)
				for _, loop := range loops {
					if pur.LoopDoesIO(loop.Blocks) {
						continue
					}
					got, gerr := instrument.Loop(prog, fn.Name, loop.Index)
					want, werr := instrument.Rederive(prog, fn.Name, loop.Index)
					if gerr != nil || werr != nil {
						if fmt.Sprint(gerr) != fmt.Sprint(werr) {
							t.Errorf("%s: Loop error %v, oracle error %v", loop.ID(), gerr, werr)
						}
						continue
					}
					if g, w := progText(prog, got), progText(prog, want); g != w {
						t.Errorf("%s: instrumented program\n%s\noracle's\n%s", loop.ID(), g, w)
					}
					if g, w := renderInstrumented(got), renderInstrumented(want); g != w {
						t.Errorf("%s: built from the program's separation\n%s\nre-derived on the clone\n%s", loop.ID(), g, w)
					}
				}
			}
		})
	}
}

// renderInstrumented renders everything of inst but its program text:
// every field of the separation, the live-out roots and the scalar
// classes. Blocks and locals render by index and name (or as foreign when
// they are not the rewritten function's), and iterator instructions by
// their first position in the rewritten function, so two builds of one
// loop render alike exactly when they agree.
func renderInstrumented(inst *instrument.Instrumented) string {
	fn := inst.Fn
	at := map[ir.Instr]string{}
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			if _, ok := at[in]; !ok {
				at[in] = fmt.Sprintf("%d/%d", b.Index, i)
			}
		}
	}
	block := func(b *ir.Block) string {
		switch {
		case b == nil:
			return "nil"
		case fn.Position(b) < 0:
			return "foreign:" + b.Name
		}
		return fmt.Sprintf("%d:%s", b.Index, b.Name)
	}
	blocks := func(bs []*ir.Block) string {
		out := make([]string, len(bs))
		for i, b := range bs {
			out[i] = block(b)
		}
		return strings.Join(out, " ")
	}
	blockSet := func(m map[*ir.Block]bool) string {
		var bs []*ir.Block
		for b := range m {
			bs = append(bs, b)
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].Index < bs[j].Index })
		return blocks(bs)
	}
	local := func(l *ir.Local) string {
		if l.Index >= len(fn.Locals) || fn.Locals[l.Index] != l {
			return "foreign:" + l.Name
		}
		return fmt.Sprintf("%d:%s", l.Index, l.Name)
	}
	locals := func(ls []*ir.Local) string {
		out := make([]string, len(ls))
		for i, l := range ls {
			out[i] = local(l)
		}
		return strings.Join(out, " ")
	}
	s, loop := inst.Sep, inst.Sep.Loop
	var b strings.Builder
	fmt.Fprintf(&b, "id %s fn-is-inst %v loop-fn-is-inst %v ok %v reason %q\n",
		inst.LoopID, s.Fn == fn, loop.Fn == fn, s.OK, s.Reason)
	fmt.Fprintf(&b, "loop %d depth %d header %s blocks [%s] latches [%s] exits [%s] exit-srcs [%s]\n",
		loop.Index, loop.Depth, block(loop.Header), blockSet(loop.Blocks),
		blocks(loop.Latches), blocks(loop.Exits), blocks(loop.ExitSrcs))
	var iter []string
	for in := range s.IterInstrs {
		pos, ok := at[in]
		if !ok {
			pos = "missing " + in.String()
		}
		iter = append(iter, pos)
	}
	sort.Strings(iter)
	fmt.Fprintf(&b, "iter-instrs [%s]\n", strings.Join(iter, " "))
	var runs []string
	for blk, r := range s.Runs {
		runs = append(runs, fmt.Sprintf("%s=%d..%d", block(blk), r.Lo, r.Hi))
	}
	sort.Strings(runs)
	fmt.Fprintf(&b, "runs [%s] payload-side [%s]\n", strings.Join(runs, " "), blockSet(s.PayloadSide))
	fmt.Fprintf(&b, "B0 %s P0 %d cont %s:%d\n", block(s.B0), s.P0, block(s.Cont.Block), s.Cont.Index)
	fmt.Fprintf(&b, "iter [%s] env [%s] internal [%s] defs [%s] live-out [%s]\n",
		locals(s.IterLocals), locals(s.EnvLocals), locals(s.Internal.Sorted()),
		locals(s.PayloadDefSet.Sorted()), locals(inst.LiveOut))
	fmt.Fprintf(&b, "counts %d %d %d %d\n",
		s.PayloadInstrCount, s.PayloadStores, s.PayloadCallStores, s.PayloadAllocs)
	for _, c := range inst.Carried {
		fmt.Fprintf(&b, "carried %s %s step %d op %v\n", local(c.Local), c.Class, c.Step, c.Op)
	}
	return b.String()
}

// midBlockSrc's first loop advances its iterator at the top of the body,
// so the payload enters mid-block (P0 > 0) — a shape the generated
// programs do not produce.
const midBlockSrc = `
func main() {
	var a []int = new [8]int;
	var i int = 0;
	while (i < 8) { i = i + 1; a[i - 1] = i * 3; }
	var s int = 0;
	for (var j int = 0; j < 8; j++) { s += a[j]; }
	print(s);
}`

// TestSeparateMidBlockEntry: a payload entered mid-block keeps its entry
// position, on the program as on the clone, and the clone still runs the
// loop in its original order.
func TestSeparateMidBlockEntry(t *testing.T) {
	prog := compile(t, midBlockSrc)
	s, err := instrument.Separate(prog, "main", 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := instrument.Loop(prog, "main", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sep.P0 == 0 {
		t.Fatalf("payload entry %s:%d, want one inside the block", s.Sep.B0.Name, s.Sep.P0)
	}
	if describe(s) != describe(&inst.Separated) {
		t.Errorf("separation on the program\n\t%s\non the clone\n\t%s", describe(s), describe(&inst.Separated))
	}
	var ref strings.Builder
	if _, err := interp.Run(prog, interp.Config{Out: &ref}); err != nil {
		t.Fatal(err)
	}
	if _, out := run(t, inst, dcart.Identity{}); out != ref.String() {
		t.Errorf("golden run printed %q, want %q", out, ref.String())
	}
}

// TestSeparateConcurrent: engine workers separate one program's loops
// concurrently, reading the function environments and the points-to
// solution the program shares (affine.EnvOf, pointer.Of). Eight goroutines
// each separate every loop of a fresh compilation of one NPB proxy and one
// PLDS program, starting at different loops and racing to build those
// shared facts, and must agree with a sequential pass over another
// compilation. Run under -race.
func TestSeparateConcurrent(t *testing.T) {
	checkConcurrent(t, func(prog *ir.Program, fn string, index int) string {
		s, err := instrument.Separate(prog, fn, index)
		if err != nil {
			return err.Error()
		}
		return describe(s)
	})
}

// TestBuildConcurrent: engine workers also build instrumented programs
// concurrently from one program's shared facts: its separations, its
// environments' Info maps and their Carried slices. Eight goroutines each
// instrument every loop of one NPB proxy and one PLDS program and must
// build what a sequential pass over another compilation builds: the same
// program text (progText) and the same separation, live-out roots and
// scalar classes. Run under -race.
func TestBuildConcurrent(t *testing.T) {
	checkConcurrent(t, func(prog *ir.Program, fn string, index int) string {
		inst, err := instrument.Loop(prog, fn, index)
		if err != nil {
			return err.Error()
		}
		return progText(prog, inst) + renderInstrumented(inst)
	})
}

// progText is inst.Prog.String() with each function the clone shares with
// prog, the program it was built from, written as its name, so comparisons
// render only what the build made (BT's full text is 80 KB a loop, slow
// under -race). Two builds from prog have equal progText exactly when
// their Prog.String() is equal.
func progText(prog *ir.Program, inst *instrument.Instrumented) string {
	var b strings.Builder
	for i, f := range inst.Prog.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		if prog.Func(f.Name) == f {
			b.WriteString("shared " + f.Name + "\n")
		} else {
			b.WriteString(f.String())
		}
	}
	return b.String()
}

// checkConcurrent runs each over every loop of NPB BT and PLDS mst from
// eight goroutines sharing one compilation, each starting at a different
// loop, and requires each result to match a sequential pass over another
// compilation.
func checkConcurrent(t *testing.T, each func(prog *ir.Program, fn string, index int) string) {
	for _, p := range []corpusProg{
		{"npb/BT", npb.SpecByName("BT").Compile},
		{"plds/mst", plds.ByName("mst").Compile},
	} {
		want := overLoops(t, p, nil, 0, each)
		if len(want) == 0 {
			t.Fatalf("%s: no loops", p.name)
		}
		prog, err := p.compile()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := p.compile()
		if err != nil {
			t.Fatal(err)
		}
		if prog.String() != seq.String() {
			t.Fatalf("%s: two compilations differ", p.name)
		}
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := overLoops(t, p, prog, w*len(want)/workers, each)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: worker %d\n\t%s\nsequential\n\t%s", p.name, w, got[i], want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// overLoops applies each to every loop of prog (a fresh compilation of p
// when prog is nil), starting at the first-th loop and wrapping around. It
// returns the results in program order.
func overLoops(t *testing.T, p corpusProg, prog *ir.Program, first int, each func(prog *ir.Program, fn string, index int) string) []string {
	if prog == nil {
		var err error
		if prog, err = p.compile(); err != nil {
			t.Error(err)
			return nil
		}
	}
	type loopRef struct {
		fn    string
		index int
	}
	var loops []loopRef
	for _, fn := range prog.Funcs {
		_, ls := cfg.LoopsOf(fn)
		for _, l := range ls {
			loops = append(loops, loopRef{fn.Name, l.Index})
		}
	}
	out := make([]string, len(loops))
	for k := range loops {
		i := (first + k) % len(loops)
		out[i] = each(prog, loops[i].fn, loops[i].index)
	}
	return out
}
