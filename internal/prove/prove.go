// Package prove implements the static commutativity prover: a stage that
// runs after the static stage (selection and separation) and before the
// dynamic stage, attempting to decide commutativity symbolically
// so that provable loops skip every schedule replay (the single golden run
// is kept as the coverage witness — a proof quantifies over iteration
// orders but cannot tell whether the workload exercises the loop at all).
// Three arguments are attempted in order:
//
//	affine-disjoint — every loop-carried memory pair is proven independent
//	                  by the affine dependence tests and the only carried
//	                  scalar is the primary induction variable;
//	pure-disjoint   — the same memory argument, but the payload may call
//	                  hermetic functions (transitively free of memory
//	                  effects, I/O, allocation, loops, and recursion);
//	reduction       — the loop-carried state is confined to integer scalar
//	                  reductions / min-max recurrences and memory-reduction
//	                  groups ("location op= expr"), none of whose
//	                  intermediate values leak.
//
// Every check is conservative: a failed proof falls through to the dynamic
// stage unchanged. The soundness contract the checks enforce is that each
// iteration's behaviour is a function of (its recorded induction value,
// deterministically restarted inner-loop IVs, loop-invariant locals, and
// memory no other iteration writes), and that all cross-iteration state is
// either disjoint or updated through a commutative-associative fold.
package prove

import (
	"fmt"
	"strings"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/ir"
	"dca/internal/pointer"
	"dca/internal/polly"
	"dca/internal/purity"
	"dca/internal/scalar"
)

// Argument names reported on proved loops.
const (
	ArgAffine    = "affine-disjoint"
	ArgPure      = "pure-disjoint"
	ArgReduction = "reduction"
)

// Result is the prover's decision for one loop.
type Result struct {
	// Proved reports a successful commutativity proof; Argument names the
	// argument that closed it.
	Proved   bool
	Argument string
	// Reason collects the per-argument obstructions of a failed proof.
	Reason string
}

// Loop attempts a static commutativity proof for the loopIndex-th loop of
// the named function. pur carries the program's purity facts (the caller
// already has them); the function's affine environment and the
// interprocedural points-to solve are the per-program ones every other
// consumer shares (affine.EnvOf, pointer.Of).
func Loop(prog *ir.Program, fnName string, loopIndex int, pur *purity.Info) Result {
	fn := prog.Func(fnName)
	if fn == nil {
		return Result{Reason: fmt.Sprintf("no function %q", fnName)}
	}
	env := affine.EnvOf(prog, fn)
	var loop *cfg.Loop
	for _, l := range env.Loops {
		if l.Index == loopIndex {
			loop = l
		}
	}
	if loop == nil {
		return Result{Reason: fmt.Sprintf("%s has no loop %d", fnName, loopIndex)}
	}
	if why := eligible(env, loop); why != "" {
		return Result{Reason: why}
	}
	p := newProver(prog, fn, env, pointer.Of(prog), pur, loop)
	carried := env.Info[loop].Carried

	var whys []string
	usedCalls, why := p.disjoint(carried)
	if why == "" {
		if usedCalls {
			return Result{Proved: true, Argument: ArgPure}
		}
		return Result{Proved: true, Argument: ArgAffine}
	}
	whys = append(whys, "disjoint: "+why)
	if why := p.reduction(carried); why == "" {
		return Result{Proved: true, Argument: ArgReduction}
	} else {
		whys = append(whys, "reduction: "+why)
	}
	return Result{Reason: strings.Join(whys, "; ")}
}

// eligible enforces the preconditions every argument shares: a countable
// loop whose trip count is constant or symbolic — a commutativity proof
// quantifies over every iteration pair, so it holds for any trip count, and
// affine.Carried treats an unknown trip conservatively (any nonzero
// iteration distance may carry). Only a loop statically known to never
// iterate is rejected: it is degenerate, and its dynamic NotExecuted
// verdict is the more informative one. Beyond countability: a single exit
// taken from the header (so every loop-defined exit-live local is
// header-live-in and therefore classified by scalar.Classify), no hidden
// exits via in-loop returns, a whitelisted instruction set, and inner loops
// with constant bounds (their IVs then restart identically every iteration,
// which the affine residual-range model assumes).
func eligible(env *affine.Env, loop *cfg.Loop) string {
	info := env.Info[loop]
	if info == nil {
		return "loop not analyzed"
	}
	if !info.OK {
		return "loop not countable: " + info.Why
	}
	if info.Trip == 0 {
		return "loop statically never iterates"
	}
	if len(loop.Exits) != 1 || len(loop.ExitSrcs) != 1 || loop.ExitSrcs[0] != loop.Header {
		return "loop has early exits"
	}
	for b := range loop.Blocks {
		switch b.Term.(type) {
		case *ir.If, *ir.Goto:
		default:
			return "in-loop return"
		}
		for _, in := range b.Instrs {
			switch in.(type) {
			case *ir.BinOp, *ir.UnOp, *ir.Mov, *ir.Load, *ir.Store, *ir.Call:
			case *ir.Print:
				return "I/O in loop"
			case *ir.Alloc:
				return "allocation in loop"
			default:
				return fmt.Sprintf("unrecognized instruction %T in loop", in)
			}
		}
	}
	for _, l2 := range env.Loops {
		if l2 != loop && loop.Blocks[l2.Header] {
			i2 := env.Info[l2]
			if i2 == nil || !i2.OK || i2.Trip < 0 {
				return "inner loop without a static trip count"
			}
		}
	}
	return ""
}

// prover bundles the per-loop analysis state the arguments share.
type prover struct {
	prog *ir.Program
	fn   *ir.Func
	env  *affine.Env
	pa   *pointer.Analysis
	pur  *purity.Info
	loop *cfg.Loop
	info *affine.LoopInfo
	// innerIVs holds the primary IVs of loops nested inside loop.
	innerIVs map[*ir.Local]bool
	// defs/uses/termUses index the loop body: instruction definitions and
	// uses per local, and blocks whose terminator condition uses a local.
	defs     map[*ir.Local][]ir.Instr
	uses     map[*ir.Local][]ir.Instr
	termUses map[*ir.Local][]*ir.Block
	// instrBlock/instrIndex locate each loop-body instruction: its block and
	// its position in the RPO-linearized body (for same-block ordering).
	instrBlock map[ir.Instr]*ir.Block
	instrIndex map[ir.Instr]int
	// blocks is the loop body in the function's RPO order.
	blocks []*ir.Block
	// herm memoizes hermeticFn: 1 = not hermetic (or in progress), 2 = yes.
	herm map[string]int
}

func newProver(prog *ir.Program, fn *ir.Func, env *affine.Env, pa *pointer.Analysis, pur *purity.Info, loop *cfg.Loop) *prover {
	p := &prover{
		prog: prog, fn: fn, env: env, pa: pa, pur: pur, loop: loop,
		info:       env.Info[loop],
		innerIVs:   map[*ir.Local]bool{},
		defs:       map[*ir.Local][]ir.Instr{},
		uses:       map[*ir.Local][]ir.Instr{},
		termUses:   map[*ir.Local][]*ir.Block{},
		instrBlock: map[ir.Instr]*ir.Block{},
		instrIndex: map[ir.Instr]int{},
		herm:       map[string]int{},
	}
	for _, l2 := range env.Loops {
		if l2 != loop && loop.Blocks[l2.Header] {
			if i2 := env.Info[l2]; i2 != nil && i2.IV != nil {
				p.innerIVs[i2.IV] = true
			}
		}
	}
	for _, b := range env.G.RPO {
		if !loop.Blocks[b] {
			continue
		}
		p.blocks = append(p.blocks, b)
		for _, in := range b.Instrs {
			p.instrBlock[in] = b
			p.instrIndex[in] = len(p.instrIndex)
			if d := in.Def(); d != nil {
				p.defs[d] = append(p.defs[d], in)
			}
			for _, u := range in.Uses() {
				if u.Local != nil {
					p.uses[u.Local] = append(p.uses[u.Local], in)
				}
			}
		}
		if b.Term != nil {
			for _, u := range b.Term.Uses() {
				if u.Local != nil {
					p.termUses[u.Local] = append(p.termUses[u.Local], b)
				}
			}
		}
	}
	return p
}

// subscriptTermsOK restricts a subscript's symbolic terms to values that
// are identical across any reordering of the tested loop's iterations: the
// loop's own primary IV (linearized and recorded per iteration), primary
// IVs of constant-bound inner loops (which restart identically), and
// loop-invariant symbols. Secondary inductions — of this loop or of an
// inner one — are rejected: their per-iteration starting values are not
// modeled by the affine residual-range logic.
func (p *prover) subscriptTermsOK(sub *affine.LinExpr) bool {
	for t, c := range sub.Coeffs {
		if c == 0 || t == p.info.IV || p.innerIVs[t] {
			continue
		}
		if len(p.defs[t]) == 0 {
			continue // invariant in this loop
		}
		return false
	}
	return true
}

// hermeticFn reports whether calling the named function is a pure
// computation over its arguments: transitively no loads, stores,
// allocations, I/O, intrinsics, loops, or recursion. Purity facts prescreen
// the cheap cases; the transitive scan adds the heap-read and termination
// restrictions purity does not track.
func (p *prover) hermeticFn(name string) bool {
	switch p.herm[name] {
	case 1:
		return false // known bad, or in progress (recursion)
	case 2:
		return true
	}
	p.herm[name] = 1
	if !p.pur.Pure(name) || p.pur.Allocates[name] {
		return false
	}
	fn := p.prog.Func(name)
	if fn == nil {
		return false
	}
	ok := true
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch i := in.(type) {
			case *ir.BinOp, *ir.UnOp, *ir.Mov:
			case *ir.Call:
				if !i.Builtin && !p.hermeticFn(i.Callee) {
					ok = false
				}
			default:
				ok = false // Load, Store, Alloc, Print, Intrinsic
			}
		}
	}
	if ok {
		// Loop-free bodies terminate; loops (even pure ones) could run
		// past the dynamic stage's budgets, which a proof must not outlive.
		if len(cfg.Loops(p.prog, fn)) > 0 {
			ok = false
		}
	}
	if ok {
		p.herm[name] = 2
	}
	return ok
}

// disjoint is the affine-disjoint / pure-disjoint argument: the only
// loop-carried scalar is the primary IV, every access is affine over
// order-invariant terms, and the dependence tests clear every write/any
// pair. usedCalls reports whether the proof leaned on hermetic callees
// (distinguishing ArgPure from ArgAffine).
func (p *prover) disjoint(carried []scalar.Carried) (usedCalls bool, why string) {
	for _, c := range carried {
		if c.Class != scalar.Induction || c.Local != p.info.IV {
			return false, fmt.Sprintf("loop-carried scalar %q (%s)", c.Local.Name, c.Class)
		}
	}
	for _, b := range p.blocks {
		for _, in := range b.Instrs {
			switch i := in.(type) {
			case *ir.Load:
				if i.FieldName != "" {
					return usedCalls, "pointer field access"
				}
			case *ir.Store:
				if i.FieldName != "" {
					return usedCalls, "pointer field access"
				}
			case *ir.Call:
				if i.Builtin {
					continue
				}
				usedCalls = true
				if !p.hermeticFn(i.Callee) {
					return usedCalls, fmt.Sprintf("call to non-hermetic function %q", i.Callee)
				}
			}
		}
	}
	accs := p.env.Accesses(p.loop)
	for _, a := range accs {
		if a.SubErr != nil {
			return usedCalls, "non-affine subscript: " + a.SubErr.Error()
		}
		if !p.subscriptTermsOK(a.Sub) {
			return usedCalls, "subscript depends on a secondary induction"
		}
	}
	if reasons := polly.CarriedMemoryDeps(p.env, p.pa, p.loop, accs, nil); len(reasons) > 0 {
		return usedCalls, reasons[0]
	}
	return usedCalls, ""
}
