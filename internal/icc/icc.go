// Package icc reimplements the auto-parallelization decision procedure of a
// mature industrial compiler in the style of Intel ICC [53] with the
// profitability heuristic disabled (par-threshold=0), as configured for
// detection in the paper. Compared with the Polly model it additionally
//
//   - inlines pure functions (calls to side-effect-free user functions are
//     acceptable in candidate loops — the paper notes ICC's robustness comes
//     from "more aggressive inlining of pure functions");
//   - accepts scalar reduction and conditional min/max recurrences as well
//     as inductions; and
//   - tolerates read-only pointer field accesses (there are no field stores
//     to conflict with).
//
// It still requires affine subscripts for every access to written arrays,
// so indirect histograms (a[b[i]] += e) remain out of reach — those belong
// to the Idioms detector.
package icc

import (
	"fmt"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/ir"
	"dca/internal/pointer"
	"dca/internal/polly"
	"dca/internal/purity"
	"dca/internal/scalar"
)

// LoopKey aliases the shared static-loop key.
type LoopKey = polly.LoopKey

// Verdict aliases the shared static verdict shape.
type Verdict = polly.Verdict

// Report holds ICC's verdicts for one program.
type Report struct {
	Prog     *ir.Program
	Verdicts map[LoopKey]*Verdict
}

// Parallelizable counts loops reported parallel.
func (r *Report) Parallelizable() int {
	n := 0
	for _, v := range r.Verdicts {
		if v.Parallel {
			n++
		}
	}
	return n
}

// Verdict returns the verdict for fn's index-th loop, or nil.
func (r *Report) Verdict(fn string, index int) *Verdict {
	return r.Verdicts[LoopKey{Fn: fn, Index: index}]
}

// Analyze statically classifies every loop of the program.
func Analyze(prog *ir.Program) *Report {
	rep := &Report{Prog: prog, Verdicts: map[LoopKey]*Verdict{}}
	pa := pointer.Of(prog)
	pur := purity.Analyze(prog)
	for _, fn := range prog.Funcs {
		env := affine.EnvOf(prog, fn)
		for _, loop := range env.Loops {
			v := &Verdict{Key: LoopKey{Fn: fn.Name, Index: loop.Index}}
			rep.Verdicts[v.Key] = v
			v.Reasons = check(env, pa, pur, loop)
			v.Parallel = len(v.Reasons) == 0
		}
	}
	return rep
}

func check(env *affine.Env, pa *pointer.Analysis, pur *purity.Info, loop *cfg.Loop) []string {
	var reasons []string
	info := env.Info[loop]
	if !info.OK {
		return []string{"loop not countable: " + info.Why}
	}
	if len(loop.Exits) != 1 {
		reasons = append(reasons, "multiple loop exits")
	}
	if info.Step < 0 {
		// The modelled dependence tests only handle canonical upward
		// counted loops (mirroring the direction-sensitivity of classic
		// vectorizing compilers); the polyhedral model has no such limit.
		reasons = append(reasons, "non-canonical downward-counted loop")
	}
	fieldLoadBases := map[*ir.Local]bool{}
	for _, b := range env.G.RPO {
		if !loop.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch i := in.(type) {
			case *ir.Print:
				reasons = append(reasons, "I/O in loop")
			case *ir.Call:
				if i.Builtin {
					continue
				}
				if !pur.Pure(i.Callee) || pur.Allocates[i.Callee] {
					reasons = append(reasons, fmt.Sprintf("call to impure function %q", i.Callee))
				}
			case *ir.Store:
				if i.FieldName != "" {
					reasons = append(reasons, "store through pointer field")
				}
			case *ir.Load:
				if i.FieldName != "" {
					fieldLoadBases[i.Base.Local] = true
				}
			case *ir.Alloc:
				reasons = append(reasons, "allocation in loop")
			}
		}
	}
	if len(reasons) > 0 {
		return dedup(reasons)
	}
	// Scalars: induction, reduction and min/max recurrences are handled.
	for _, c := range env.Info[loop].Carried {
		if c.Class == scalar.Fatal {
			reasons = append(reasons, fmt.Sprintf("unresolvable loop-carried scalar %q", c.Local.Name))
		}
	}
	if len(reasons) > 0 {
		return dedup(reasons)
	}
	// Memory: every access to a written object must be affine; field loads
	// are read-only by the checks above and cannot conflict with array
	// stores (struct and array regions are disjoint).
	var arrayAccs []affine.Access
	for _, a := range env.Accesses(loop) {
		if a.Field != "" {
			continue
		}
		arrayAccs = append(arrayAccs, a)
	}
	writtenBases := map[*ir.Local]bool{}
	for _, a := range arrayAccs {
		if a.IsWrite {
			writtenBases[a.Base] = true
		}
	}
	for _, a := range arrayAccs {
		if a.SubErr == nil {
			continue
		}
		if a.IsWrite {
			reasons = append(reasons, "non-affine store subscript: "+a.SubErr.Error())
			continue
		}
		// Non-affine read: fatal only if it may alias a written object.
		for w := range writtenBases {
			if a.Base == w || aliasLocals(pa, a.Base, w) {
				reasons = append(reasons, "non-affine load subscript aliases a written array")
				break
			}
		}
	}
	if len(reasons) > 0 {
		return dedup(reasons)
	}
	reasons = append(reasons, polly.CarriedMemoryDeps(env, pa, loop, arrayAccs, nil)...)
	return dedup(reasons)
}

func aliasLocals(pa *pointer.Analysis, a, b *ir.Local) bool {
	if a == nil || b == nil {
		return true
	}
	for _, s := range pa.PointsTo(a) {
		for _, t := range pa.PointsTo(b) {
			if s == t {
				return true
			}
		}
	}
	return false
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
