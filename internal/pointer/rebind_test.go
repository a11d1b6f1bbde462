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
	"testing"

	"dca/internal/cfg"
	"dca/internal/fuzzgen"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/pointer"
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

// diffViews compares every query the analysis of prog answers about prog
// with what the analysis of clone, a CloneShared copy of prog not edited
// since, answers about the clone's counterpart: PointsTo for every local,
// AccessRegions for every load and store, CallEffects for every call, each
// as a sorted set. Counterparts are found the way instrument.Build maps a
// separation onto its clone: locals by index (Func.LocalFor), blocks by
// position (Func.BlockFor) and instructions by position in their block. A
// shared function is its own counterpart. It returns the first difference,
// or "".
func diffViews(prog, clone *ir.Program, base, fresh *pointer.Analysis) string {
	r := render{}
	for _, fn := range prog.Funcs {
		cfn := clone.Func(fn.Name)
		if cfn == nil || len(cfn.Locals) != len(fn.Locals) || len(cfn.Blocks) != len(fn.Blocks) {
			return fmt.Sprintf("%s: the clone's copy does not line up", fn.Name)
		}
		for _, l := range fn.Locals {
			if g, w := r.sites(base.PointsTo(l)), r.sites(fresh.PointsTo(cfn.LocalFor(l))); g != w {
				return fmt.Sprintf("%s: PointsTo(%s) = [%s], fresh solve of the clone [%s]", fn.Name, l.Name, g, w)
			}
		}
		for _, b := range fn.Blocks {
			cb := cfn.BlockFor(fn, b)
			if len(cb.Instrs) != len(b.Instrs) {
				return fmt.Sprintf("%s: block %s of the clone's copy does not line up", fn.Name, b.Name)
			}
			for k, in := range b.Instrs {
				var g, w string
				switch i := in.(type) {
				case *ir.Load, *ir.Store:
					g, w = r.regions(base.AccessRegions(in)), r.regions(fresh.AccessRegions(cb.Instrs[k]))
				case *ir.Call:
					c, ok := cb.Instrs[k].(*ir.Call)
					if !ok {
						return fmt.Sprintf("%s: %s has no call at its position in the clone", fn.Name, in)
					}
					g, w = r.effects(base.CallEffects(i)), r.effects(fresh.CallEffects(c))
				default:
					continue
				}
				if g != w {
					return fmt.Sprintf("%s: %s: got [%s], fresh solve of the clone [%s]", fn.Name, in, g, w)
				}
			}
		}
	}
	return ""
}

// TestRebindMatchesFreshAnalysis: instrument.Build rebinds the facts the
// program's shared analysis (pointer.Of) supports onto the CloneShared
// clone of a loop's function by position, and analyses nothing afresh.
// For every function with a loop in the corpus, the shared analysis,
// queried about the program, must answer exactly as a fresh solve of the
// clone answers about the clone's counterparts.
func TestRebindMatchesFreshAnalysis(t *testing.T) {
	for _, p := range rebindPrograms(t) {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			base := pointer.Of(p.prog)
			for _, fn := range p.prog.Funcs {
				if _, ls := cfg.LoopsOf(fn); len(ls) == 0 {
					continue
				}
				clone := p.prog.CloneShared(fn.Name)
				if d := diffViews(p.prog, clone, base, pointer.Analyze(clone)); d != "" {
					t.Fatalf("clone of %s: %s", fn.Name, d)
				}
			}
		})
	}
}
