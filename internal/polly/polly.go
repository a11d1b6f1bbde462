// Package polly reimplements the decision procedure of a polyhedral loop
// analyzer in the style of Polly [52] configured as in the paper
// (-polly-process-unprofitable, detection only): a loop is reported
// parallelizable iff it is a static control part — constant-step induction
// variable, affine loop-invariant bound, single exit, call-free, straight
// array accesses with affine subscripts — and the affine dependence tests
// prove the absence of loop-carried dependences. Reductions, pointer-linked
// structures and early exits are outside the model, which is exactly why
// the paper's Table III shows it detecting 12% of NPB loops.
package polly

import (
	"fmt"
	"sort"
	"strings"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/ir"
	"dca/internal/pointer"
	"dca/internal/scalar"
)

// LoopKey identifies a loop by function and index.
type LoopKey struct {
	Fn    string
	Index int
}

// Verdict is Polly's per-loop decision.
type Verdict struct {
	Key      LoopKey
	Parallel bool
	Reasons  []string
}

// Report holds all verdicts for one program.
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
	return r.Verdicts[LoopKey{fn, index}]
}

func (r *Report) String() string { return renderVerdicts(r.Verdicts) }

// Analyze statically classifies every loop of the program.
func Analyze(prog *ir.Program) *Report {
	rep := &Report{Prog: prog, Verdicts: map[LoopKey]*Verdict{}}
	pa := pointer.Of(prog)
	for _, fn := range prog.Funcs {
		env := affine.EnvOf(prog, fn)
		for _, loop := range env.Loops {
			v := &Verdict{Key: LoopKey{fn.Name, loop.Index}}
			rep.Verdicts[v.Key] = v
			v.Reasons = check(env, pa, loop)
			v.Parallel = len(v.Reasons) == 0
		}
	}
	return rep
}

func check(env *affine.Env, pa *pointer.Analysis, loop *cfg.Loop) []string {
	var reasons []string
	info := env.Info[loop]
	if !info.OK {
		return append(reasons, "not a SCoP: "+info.Why)
	}
	if len(loop.Exits) != 1 || len(loop.ExitSrcs) != 1 || loop.ExitSrcs[0] != loop.Header {
		reasons = append(reasons, "not a SCoP: early exits")
	}
	// Statement restrictions.
	for _, b := range env.G.RPO {
		if !loop.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch i := in.(type) {
			case *ir.Print:
				reasons = append(reasons, "not a SCoP: I/O in loop")
			case *ir.Alloc:
				reasons = append(reasons, "not a SCoP: allocation in loop")
			case *ir.Call:
				if !i.Builtin {
					reasons = append(reasons, fmt.Sprintf("not a SCoP: call to %q", i.Callee))
				}
			case *ir.Load:
				if i.FieldName != "" {
					reasons = append(reasons, "not a SCoP: pointer field access")
				}
			case *ir.Store:
				if i.FieldName != "" {
					reasons = append(reasons, "not a SCoP: pointer field access")
				}
			}
		}
	}
	if len(reasons) > 0 {
		return dedup(reasons)
	}
	// Scalars: inductions only.
	for _, c := range env.Info[loop].Carried {
		if c.Class != scalar.Induction {
			reasons = append(reasons, fmt.Sprintf("loop-carried scalar %q (%s)", c.Local.Name, c.Class))
		}
	}
	// Array accesses: affine subscripts, loop-invariant bases, no carried
	// dependences.
	accs := env.Accesses(loop)
	for _, a := range accs {
		if a.SubErr != nil {
			reasons = append(reasons, "non-affine subscript: "+a.SubErr.Error())
		}
	}
	if len(reasons) > 0 {
		return dedup(reasons)
	}
	reasons = append(reasons, CarriedMemoryDeps(env, pa, loop, accs, nil)...)
	return dedup(reasons)
}

// CarriedMemoryDeps runs the affine dependence tests over every write/any
// pair that may alias, skipping instruction pairs for which skip returns
// true (used by the Idioms detector to exempt its reduction groups).
// Shared by the static tools.
func CarriedMemoryDeps(env *affine.Env, pa *pointer.Analysis, loop *cfg.Loop, accs []affine.Access, skip func(a, b affine.Access) bool) []string {
	var reasons []string
	for i := 0; i < len(accs); i++ {
		for j := i; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if !a.IsWrite && !b.IsWrite {
				continue
			}
			if skip != nil && skip(a, b) {
				continue
			}
			if !mayAlias(pa, a, b) {
				continue
			}
			if a.Base != b.Base {
				reasons = append(reasons, "cannot disambiguate pointer bases")
				continue
			}
			if env.Carried(a, b, loop) {
				reasons = append(reasons, fmt.Sprintf("possible loop-carried dependence between %q and %q", a.Instr, b.Instr))
			}
		}
	}
	return reasons
}

func mayAlias(pa *pointer.Analysis, a, b affine.Access) bool {
	if a.Base == nil || b.Base == nil {
		return true
	}
	if a.Base == b.Base {
		return true
	}
	as := pa.PointsTo(a.Base)
	bs := pa.PointsTo(b.Base)
	for _, s := range as {
		for _, t := range bs {
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

func renderVerdicts(vs map[LoopKey]*Verdict) string {
	keys := make([]LoopKey, 0, len(vs))
	for k := range vs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fn != keys[j].Fn {
			return keys[i].Fn < keys[j].Fn
		}
		return keys[i].Index < keys[j].Index
	})
	var b strings.Builder
	for _, k := range keys {
		v := vs[k]
		status := "parallel"
		if !v.Parallel {
			status = "serial"
		}
		fmt.Fprintf(&b, "%s/L%d: %s", k.Fn, k.Index, status)
		if len(v.Reasons) > 0 {
			fmt.Fprintf(&b, " (%s)", strings.Join(v.Reasons, "; "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
