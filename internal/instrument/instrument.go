// Package instrument implements DCA's commutativity-testing transformation
// (§IV-A3 iterator linearization and §IV-A4 commutativity-testing
// instrumentation). Given a program, a function and a loop index, it clones
// the program and rewrites the loop into:
//
//	linearized loop        — the original loop with the payload region
//	                         replaced by @rt_iterator_linearize(iter values),
//	                         so the iterator runs to completion recording
//	                         the per-iteration values the payload would see;
//	@rt_iterator_permute() — hands the recorded sequence to the runtime,
//	                         which reorders it under the active schedule;
//	driver loop            — while @rt_iterator_next() { payload(@rt_iterator_get(k)..., env) }
//	@rt_verify(live-outs)  — snapshots the loop's live-out state for
//	                         comparison against the golden execution order.
//
// Loop exits are funneled through an exit-id dispatch so multi-exit loops
// resume at the correct continuation after the driver completes.
//
// Separate runs only the first step, iterator/payload separation, on the
// program itself. It decides whether the loop can be transformed and yields
// what an analysis reads before it needs the instrumented program, so an
// analysis builds that program only for a loop it must execute. Build
// turns a separation into the instrumented program: it maps the
// separation, the live-out roots and the loop's scalar classes onto the
// clone instead of analysing the clone again. Loop is Separate, then
// Build.
package instrument

import (
	"fmt"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/ir"
	"dca/internal/iterrec"
	"dca/internal/outline"
	"dca/internal/pointer"
	"dca/internal/scalar"
	"dca/internal/types"
)

// Intrinsic names serviced by the DCA runtime.
const (
	RTLinearize = "rt_iterator_linearize"
	RTPermute   = "rt_iterator_permute"
	RTNext      = "rt_iterator_next"
	RTGet       = "rt_iterator_get"
	RTVerify    = "rt_verify"
)

// Separated is one loop's iterator/payload separation and the live-out
// roots rt_verify snapshots: computed on the program's own function
// (Separate), or mapped onto the instrumented clone (Build).
type Separated struct {
	LoopID string
	Sep    *iterrec.Separation
	// LiveOut names the locals whose values rt_verify snapshots.
	LiveOut []*ir.Local
}

// onto maps the separation and the live-out roots onto fn, a Func.Clone of
// the separated function that is not yet edited.
func (s *Separated) onto(fn *ir.Func) Separated {
	liveOut := make([]*ir.Local, len(s.LiveOut))
	for i, l := range s.LiveOut {
		liveOut[i] = fn.LocalFor(l)
	}
	return Separated{LoopID: s.LoopID, Sep: s.Sep.Onto(fn), LiveOut: liveOut}
}

// Instrumented is a program rewritten to test one loop.
type Instrumented struct {
	Prog *ir.Program // instrumented clone
	Fn   *ir.Func    // function containing the rewritten loop (in Prog)
	// Separated is the program's separation mapped onto the clone; its
	// blocks have since been rewritten.
	Separated
	Payload *outline.Result
	// Carried classifies the loop-carried scalars of the rewritten loop:
	// the program's affine.LoopInfo.Carried mapped onto the clone. The
	// parallel executor uses it to choose reduction combiners for
	// environment fields.
	Carried []scalar.Carried
}

// Separate separates the loopIndex-th loop (in cfg.FindLoops order) of the
// named function on prog itself, from the function's shared facts
// (affine.EnvOf, pointer.Of): nothing is cloned, outlined or rewritten. It
// rejects exactly the loops Loop rejects, with the same errors, except a
// malformed outlined or rewritten function, which only Build's verifier can
// see. The result refers to prog's own blocks and locals. Safe for
// concurrent use.
func Separate(prog *ir.Program, fnName string, loopIndex int) (*Separated, error) {
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, noFunc(fnName)
	}
	env := affine.EnvOf(prog, fn)
	if loopIndex < 0 || loopIndex >= len(env.Loops) {
		return nil, outOfRange(fnName, len(env.Loops), loopIndex)
	}
	return separate(env.Env, env.Loops[loopIndex], pointer.Of(prog))
}

// Loop instruments the loopIndex-th loop (in cfg.FindLoops order) of the
// named function: Separate, then Build. The input program is not modified.
func Loop(prog *ir.Program, fnName string, loopIndex int) (*Instrumented, error) {
	s, err := Separate(prog, fnName, loopIndex)
	if err != nil {
		return nil, err
	}
	return Build(prog, s)
}

// Build instruments the loop s separates; s is Separate's result on prog.
// It clones the loop's function (ir.Program.CloneShared) and maps s, its
// live-out roots and the loop's scalar classes (affine.LoopInfo.Carried)
// onto the clone by block position, local index and instruction position.
// Func.Clone keeps all three, and the clone is not edited before outlining,
// so the mapped facts are the ones a fresh analysis of the clone would
// compute; nothing is re-analysed. Build then outlines the payload,
// rewrites the loop and verifies the result. The input program is not
// modified. Safe for concurrent use.
func Build(prog *ir.Program, s *Separated) (*Instrumented, error) {
	fn := s.Sep.Fn
	var info *affine.LoopInfo
	if prog.Func(fn.Name) == fn {
		info = affine.EnvOf(prog, fn).Info[s.Sep.Loop]
	}
	if info == nil {
		return nil, fmt.Errorf("instrument: %s was not separated on this program", s.LoopID)
	}
	// Only fn is rewritten; every other function is shared with the input
	// program (and stays immutable), so cloning costs one function.
	clone := prog.CloneShared(fn.Name)
	cfn := clone.Func(fn.Name)
	preFuncs := len(clone.Funcs)
	inst := &Instrumented{
		Prog:      clone,
		Fn:        cfn,
		Separated: s.onto(cfn),
		Carried:   make([]scalar.Carried, len(info.Carried)),
	}
	for i, c := range info.Carried {
		inst.Carried[i] = c.Onto(cfn)
	}
	pay, err := outline.Outline(inst.Sep)
	if err != nil {
		return nil, err
	}
	inst.Payload = pay
	rewrite(inst)
	if err := verify(inst, preFuncs); err != nil {
		return nil, err
	}
	return inst, nil
}

// verify checks the functions rewriting can have made malformed: the
// rewritten function and those outlining added after the first preFuncs.
// The rest of the clone is a copy of an already-verified program, so
// re-verifying it per loop is pure waste.
func verify(inst *Instrumented, preFuncs int) error {
	for _, fn := range append([]*ir.Func{inst.Fn}, inst.Prog.Funcs[preFuncs:]...) {
		if err := fn.Verify(); err != nil {
			return fmt.Errorf("instrument: rewritten program is malformed: %w", err)
		}
	}
	return nil
}

func noFunc(fnName string) error { return fmt.Errorf("instrument: no function %q", fnName) }

func outOfRange(fnName string, loops, loopIndex int) error {
	return fmt.Errorf("instrument: %s has %d loops, index %d out of range", fnName, loops, loopIndex)
}

// separate runs iterator recognition on one loop of env's function, makes
// the checks outlining and rewriting would otherwise fail later, and
// collects the live-out roots.
func separate(env *scalar.Env, loop *cfg.Loop, pa *pointer.Analysis) (*Separated, error) {
	sep := iterrec.Separate(env.G, env.PD, loop, pa, env.LV)
	if !sep.OK {
		return nil, fmt.Errorf("instrument: %s: %s", loop.ID(), sep.Reason)
	}
	if err := outline.Check(sep); err != nil {
		return nil, err
	}
	if len(loop.Exits) == 0 {
		return nil, fmt.Errorf("instrument: loop %s has no exits", loop.ID())
	}
	// Live-out roots: the locals live at the loop exits, plus every
	// reference-typed parameter of the containing function — heap state
	// reachable from a parameter escapes to the caller even when no local
	// is live after the loop (a map loop at the end of a void function
	// must still have its array/list state verified).
	liveOut := env.LV.AnalyzeLoop(loop).LiveAfter.Clone()
	for _, p := range env.G.Fn.Params {
		if p.Type.IsRef() {
			liveOut[p] = true
		}
	}
	return &Separated{LoopID: loop.ID(), Sep: sep, LiveOut: liveOut.Sorted()}, nil
}

// rewrite turns the clone's loop into the linearized loop, the permute
// block, the driver loop and the verify block. separate has checked that
// the loop has an exit.
func rewrite(inst *Instrumented) {
	fn := inst.Fn
	sep := inst.Sep
	loop := sep.Loop

	// --- New locals. ---
	exitID := fn.NewTemp(types.IntType)
	envLoc := fn.NewLocal("dca_env", inst.Payload.PtrType)
	envLoc.Synth = true
	hasNext := fn.NewTemp(types.BoolType)
	var getTmps []*ir.Local
	for _, il := range sep.IterLocals {
		t := fn.NewLocal("dca_it_"+il.Name, il.Type)
		t.Synth = true
		getTmps = append(getTmps, t)
	}

	// --- New blocks. ---
	permuteB := fn.NewBlock("dca.permute")
	driverHdr := fn.NewBlock("dca.driver.header")
	driverBody := fn.NewBlock("dca.driver.body")
	verifyB := fn.NewBlock("dca.verify")

	// --- 1. Redirect loop exits through exit-id recording blocks. This
	// happens before linearization so a continuation-block suffix inherits
	// the redirected terminator.
	exitIndex := map[*ir.Block]int{}
	for i, e := range loop.Exits {
		exitIndex[e] = i
	}
	redirect := map[*ir.Block]*ir.Block{} // original exit target -> recorder
	for _, e := range loop.Exits {
		rec := fn.NewBlock("dca.exit")
		rec.Append(&ir.Mov{Dst: exitID, Src: ir.IntOp(int64(exitIndex[e]))})
		rec.Term = &ir.Goto{Target: permuteB}
		redirect[e] = rec
	}
	for _, src := range loop.ExitSrcs {
		switch t := src.Term.(type) {
		case *ir.If:
			if !loop.Blocks[t.Then] {
				t.Then = redirect[t.Then]
			}
			if !loop.Blocks[t.Else] {
				t.Else = redirect[t.Else]
			}
		case *ir.Goto:
			if !loop.Blocks[t.Target] {
				t.Target = redirect[t.Target]
			}
		}
	}

	// --- 2. Linearize: rewrite the payload region entry into a record. ---
	// Continuation target for the record.
	var contTarget *ir.Block
	if sep.Cont.Index == 0 {
		contTarget = sep.Cont.Block
	} else {
		// Split the continuation block's iterator suffix into its own block.
		suffix := fn.NewBlock("dca.lin.cont")
		suffix.Pos = sep.Cont.Block.Pos
		suffix.Instrs = append(suffix.Instrs, sep.Cont.Block.Instrs[sep.Cont.Index:]...)
		suffix.Term = sep.Cont.Block.Term
		contTarget = suffix
	}
	var recordArgs []ir.Operand
	for _, il := range sep.IterLocals {
		recordArgs = append(recordArgs, ir.LocalOp(il))
	}
	// B0: keep iterator prefix, record, jump to continuation.
	b0 := sep.B0
	prefix := append([]ir.Instr(nil), b0.Instrs[:sep.P0]...)
	prefix = append(prefix, &ir.Intrinsic{Name: RTLinearize, Args: recordArgs})
	b0.Instrs = prefix
	b0.Term = &ir.Goto{Target: contTarget}

	// --- 3. Permute block: build env, hand over to the runtime. ---
	permuteB.Append(&ir.Alloc{Dst: envLoc, Struct: inst.Payload.EnvType})
	for _, l := range sep.EnvLocals {
		idx := inst.Payload.EnvIndex[l]
		permuteB.Append(&ir.Store{
			Base:      ir.LocalOp(envLoc),
			Index:     ir.IntOp(int64(idx)),
			Src:       ir.LocalOp(l),
			FieldName: inst.Payload.EnvType.Fields[idx].Name,
		})
	}
	permuteB.Append(&ir.Intrinsic{Name: RTPermute, Args: []ir.Operand{ir.LocalOp(envLoc)}})
	permuteB.Term = &ir.Goto{Target: driverHdr}

	// --- 4. Driver loop. ---
	driverHdr.Append(&ir.Intrinsic{Dst: hasNext, Name: RTNext})
	driverHdr.Term = &ir.If{Cond: ir.LocalOp(hasNext), Then: driverBody, Else: verifyB}
	var callArgs []ir.Operand
	for k, tmp := range getTmps {
		driverBody.Append(&ir.Intrinsic{Dst: tmp, Name: RTGet, Args: []ir.Operand{ir.IntOp(int64(k))}})
		callArgs = append(callArgs, ir.LocalOp(tmp))
	}
	callArgs = append(callArgs, ir.LocalOp(envLoc))
	driverBody.Append(&ir.Call{Callee: inst.Payload.Payload.Name, Args: callArgs})
	driverBody.Term = &ir.Goto{Target: driverHdr}

	// --- 5. Verify block: restore env locals, snapshot live-outs, dispatch. ---
	for _, l := range sep.EnvLocals {
		idx := inst.Payload.EnvIndex[l]
		verifyB.Append(&ir.Load{
			Dst:       l,
			Base:      ir.LocalOp(envLoc),
			Index:     ir.IntOp(int64(idx)),
			FieldName: inst.Payload.EnvType.Fields[idx].Name,
		})
	}
	var roots []ir.Operand
	for _, l := range inst.LiveOut {
		roots = append(roots, ir.LocalOp(l))
	}
	verifyB.Append(&ir.Intrinsic{Name: RTVerify, Args: roots})
	// Exit dispatch.
	cur := verifyB
	for i := 0; i < len(loop.Exits)-1; i++ {
		cond := fn.NewTemp(types.BoolType)
		cur.Append(&ir.BinOp{Dst: cond, Op: ir.Eq, X: ir.LocalOp(exitID), Y: ir.IntOp(int64(i))})
		next := fn.NewBlock("dca.dispatch")
		cur.Term = &ir.If{Cond: ir.LocalOp(cond), Then: loop.Exits[i], Else: next}
		cur = next
	}
	cur.Term = &ir.Goto{Target: loop.Exits[len(loop.Exits)-1]}
}
