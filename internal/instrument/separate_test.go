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
// does no I/O, separating it on the program itself fails exactly when
// instrumenting it fails, with the same message, and otherwise agrees with
// the separation computed on the instrumented clone.
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
					s, serr := instrument.Separate(prog, fn.Name, loop.Index)
					inst, lerr := instrument.Loop(prog, fn.Name, loop.Index)
					switch {
					case serr != nil || lerr != nil:
						if fmt.Sprint(serr) != fmt.Sprint(lerr) {
							t.Errorf("%s: Separate error %v, Loop error %v", loop.ID(), serr, lerr)
						}
					case describe(s) != describe(&inst.Separated):
						t.Errorf("%s: separation on the program\n\t%s\non the clone\n\t%s", loop.ID(), describe(s), describe(&inst.Separated))
					}
				}
			}
		})
	}
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
	for _, p := range []corpusProg{
		{"npb/BT", npb.SpecByName("BT").Compile},
		{"plds/mst", plds.ByName("mst").Compile},
	} {
		want := separateAll(t, p, nil, 0)
		if len(want) == 0 {
			t.Fatalf("%s: no loops", p.name)
		}
		prog, err := p.compile()
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := separateAll(t, p, prog, w*len(want)/workers)
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

// separateAll separates every loop of prog (a fresh compilation of p when
// prog is nil), starting at the first-th loop and wrapping around. It
// returns one description or error per loop, in program order.
func separateAll(t *testing.T, p corpusProg, prog *ir.Program, first int) []string {
	if prog == nil {
		var err error
		if prog, err = p.compile(); err != nil {
			t.Fatal(err)
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
		s, err := instrument.Separate(prog, loops[i].fn, loops[i].index)
		if err != nil {
			out[i] = err.Error()
		} else {
			out[i] = describe(s)
		}
	}
	return out
}
