// Package idioms reimplements a constraint-based reduction and histogram
// detector in the style of Ginsbach & O'Boyle [51]: it searches loops for
// scalar reduction recurrences (including conditional min/max) and memory
// reduction idioms "location op= expr" — crucially including indirect
// subscripts such as histograms h[key[i]] += 1, which defeat the affine
// tools — and reports a loop parallelizable when such an idiom is present
// and the rest of the loop carries no other dependence.
package idioms

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

// Verdict extends the static verdict with the matched idioms.
type Verdict struct {
	Key      LoopKey
	Parallel bool
	// Idioms names the matched idiom kinds ("scalar-reduction", "minmax",
	// "histogram").
	Idioms  []string
	Reasons []string
}

// Report holds Idioms' verdicts for one program.
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
		groups := affine.MemReductionGroups(fn)
		for _, loop := range env.Loops {
			v := &Verdict{Key: LoopKey{Fn: fn.Name, Index: loop.Index}}
			rep.Verdicts[v.Key] = v
			check(env, pa, pur, groups, loop, v)
		}
	}
	return rep
}

func check(env *affine.Env, pa *pointer.Analysis, pur *purity.Info, groups map[ir.Instr]int, loop *cfg.Loop, v *Verdict) {
	// --- Find idiom instances. ---
	carried := env.Info[loop].Carried
	for _, c := range carried {
		switch c.Class {
		case scalar.Reduction:
			v.Idioms = append(v.Idioms, "scalar-reduction")
		case scalar.MinMax:
			v.Idioms = append(v.Idioms, "minmax")
		}
	}
	groupInstrs := map[ir.Instr]bool{}
	haveHistogram := false
	for _, b := range env.G.RPO {
		if !loop.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			if _, ok := groups[in]; ok {
				groupInstrs[in] = true
				haveHistogram = true
			}
		}
	}
	if haveHistogram {
		v.Idioms = append(v.Idioms, "histogram")
	}
	if len(v.Idioms) == 0 {
		v.Reasons = []string{"no reduction or histogram idiom in loop"}
		return
	}

	// --- The rest of the loop must be clean. ---
	info := env.Info[loop]
	if !info.OK {
		v.Reasons = append(v.Reasons, "idiom host loop not countable: "+info.Why)
		return
	}
	if len(loop.Exits) != 1 {
		v.Reasons = append(v.Reasons, "multiple loop exits")
	}
	for _, b := range env.G.RPO {
		if !loop.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch i := in.(type) {
			case *ir.Print:
				v.Reasons = append(v.Reasons, "I/O in loop")
			case *ir.Call:
				if !i.Builtin && (!pur.Pure(i.Callee) || pur.Allocates[i.Callee]) {
					v.Reasons = append(v.Reasons, fmt.Sprintf("call to impure function %q", i.Callee))
				}
			case *ir.Store:
				if i.FieldName != "" && !groupInstrs[in] {
					v.Reasons = append(v.Reasons, "store through pointer field")
				}
			case *ir.Alloc:
				v.Reasons = append(v.Reasons, "allocation in loop")
			}
		}
	}
	for _, c := range carried {
		if c.Class == scalar.Fatal {
			v.Reasons = append(v.Reasons, fmt.Sprintf("unresolvable loop-carried scalar %q", c.Local.Name))
		}
	}
	if len(v.Reasons) > 0 {
		return
	}
	// Memory: accesses outside the reduction groups must be affine and
	// dependence-free; group accesses are exempt, but their target object
	// must not be touched by non-group accesses (checked via alias pairs
	// below — a group/non-group pair is not skipped).
	var accs []affine.Access
	for _, a := range env.Accesses(loop) {
		if a.Field != "" && groupInstrs[a.Instr] {
			continue
		}
		accs = append(accs, a)
	}
	for _, a := range accs {
		if a.SubErr != nil && !groupInstrs[a.Instr] && a.IsWrite {
			v.Reasons = append(v.Reasons, "non-affine store outside the idiom: "+a.SubErr.Error())
		}
	}
	if len(v.Reasons) > 0 {
		return
	}
	skip := func(a, b affine.Access) bool {
		ga, aOK := groups[a.Instr]
		gb, bOK := groups[b.Instr]
		return aOK && bOK && ga == gb
	}
	v.Reasons = append(v.Reasons, polly.CarriedMemoryDeps(env, pa, loop, accs, skip)...)
	v.Parallel = len(v.Reasons) == 0
}
