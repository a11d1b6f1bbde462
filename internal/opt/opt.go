// Package opt provides classic scalar IR optimizations: constant folding,
// block-local copy/constant propagation, branch simplification, unreachable
// block removal and dead code elimination. The passes are semantics-
// preserving for program results, but they change the *instruction
// population* (folded loads, removed temporaries), so the analysis pipeline
// runs on unoptimized IR by default — the optimizer exists for `dca run
// -opt`, for making the interpreter cheaper on hot workloads, and as part
// of the compiler substrate a downstream user would expect.
package opt

import (
	"dca/internal/interp"
	"dca/internal/ir"
)

// Stats counts what the optimizer did.
type Stats struct {
	Folded           int // BinOp/UnOp replaced by constants
	Propagated       int // operands rewritten to constants/earlier locals
	BranchesPruned   int // constant If terminators rewritten to Goto
	BlocksRemoved    int // unreachable blocks dropped
	InstrsEliminated int // dead instructions removed
}

// Total reports the total number of rewrites.
func (s Stats) Total() int {
	return s.Folded + s.Propagated + s.BranchesPruned + s.BlocksRemoved + s.InstrsEliminated
}

func (s *Stats) add(o Stats) {
	s.Folded += o.Folded
	s.Propagated += o.Propagated
	s.BranchesPruned += o.BranchesPruned
	s.BlocksRemoved += o.BlocksRemoved
	s.InstrsEliminated += o.InstrsEliminated
}

// Program optimizes every function to a bounded fixpoint.
func Program(prog *ir.Program) Stats {
	var total Stats
	for _, fn := range prog.Funcs {
		total.add(Func(fn))
	}
	return total
}

// Func optimizes one function.
func Func(fn *ir.Func) Stats {
	var total Stats
	for round := 0; round < 8; round++ {
		var s Stats
		s.Propagated += propagate(fn)
		s.Folded += fold(fn)
		s.BranchesPruned += pruneBranches(fn)
		s.BlocksRemoved += removeUnreachable(fn)
		s.InstrsEliminated += eliminateDead(fn)
		total.add(s)
		if s.Total() == 0 {
			break
		}
	}
	return total
}

// propagate performs block-local forward copy/constant propagation: within
// one block, a use of a local whose most recent definition in the same
// block was `Mov src` is replaced by src (when src is a constant, or a
// local not redefined in between).
func propagate(fn *ir.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		// version tracks redefinitions of source locals.
		version := map[*ir.Local]int{}
		type binding struct {
			op  ir.Operand
			ver int
		}
		bind := map[*ir.Local]binding{}
		lookup := func(o ir.Operand) (ir.Operand, bool) {
			if o.Local == nil {
				return o, false
			}
			bd, ok := bind[o.Local]
			if !ok {
				return o, false
			}
			if bd.op.Local != nil && version[bd.op.Local] != bd.ver {
				return o, false // source redefined since the Mov
			}
			return bd.op, true
		}
		rewrite := func(o *ir.Operand) {
			if no, ok := lookup(*o); ok {
				*o = no
				n++
			}
		}
		for _, in := range b.Instrs {
			switch i := in.(type) {
			case *ir.Mov:
				rewrite(&i.Src)
			case *ir.BinOp:
				rewrite(&i.X)
				rewrite(&i.Y)
			case *ir.UnOp:
				rewrite(&i.X)
			case *ir.Load:
				rewrite(&i.Base)
				rewrite(&i.Index)
			case *ir.Store:
				rewrite(&i.Base)
				rewrite(&i.Index)
				rewrite(&i.Src)
			case *ir.Alloc:
				if i.Struct == nil {
					rewrite(&i.Count)
				}
			case *ir.Call:
				for k := range i.Args {
					rewrite(&i.Args[k])
				}
			case *ir.Print:
				for k := range i.Args {
					rewrite(&i.Args[k])
				}
			case *ir.Intrinsic:
				for k := range i.Args {
					rewrite(&i.Args[k])
				}
			}
			if d := in.Def(); d != nil {
				version[d]++
				delete(bind, d)
				if mv, ok := in.(*ir.Mov); ok {
					src := mv.Src
					if src.Local != d { // self-moves bind nothing
						bd := binding{op: src}
						if src.Local != nil {
							bd.ver = version[src.Local]
						}
						bind[d] = bd
					}
				}
			}
		}
		switch t := b.Term.(type) {
		case *ir.If:
			rewrite(&t.Cond)
		case *ir.Ret:
			if t.Val != nil {
				rewrite(t.Val)
			}
		}
	}
	return n
}

// fold replaces pure operations on constants with constant moves.
func fold(fn *ir.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		for idx, in := range b.Instrs {
			switch i := in.(type) {
			case *ir.BinOp:
				if i.X.IsConst() && i.Y.IsConst() {
					v, err := interp.EvalBinOp(i.Op, i.X.Const, i.Y.Const)
					if err != nil {
						continue // division by zero etc.: keep the trap
					}
					b.Instrs[idx] = &ir.Mov{Dst: i.Dst, Src: ir.ConstOp(v)}
					n++
				}
			case *ir.UnOp:
				if !i.X.IsConst() {
					continue
				}
				x := i.X.Const
				switch {
				case i.Op == ir.Neg && x.Kind == ir.KindInt:
					b.Instrs[idx] = &ir.Mov{Dst: i.Dst, Src: ir.ConstOp(ir.IntVal(-x.I))}
					n++
				case i.Op == ir.Neg && x.Kind == ir.KindFloat:
					b.Instrs[idx] = &ir.Mov{Dst: i.Dst, Src: ir.ConstOp(ir.FloatVal(-x.Float()))}
					n++
				case i.Op == ir.Not && x.Kind == ir.KindBool:
					b.Instrs[idx] = &ir.Mov{Dst: i.Dst, Src: ir.ConstOp(ir.BoolVal(!x.Bool()))}
					n++
				}
			}
		}
	}
	return n
}

// pruneBranches rewrites constant conditional branches to jumps.
func pruneBranches(fn *ir.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		t, ok := b.Term.(*ir.If)
		if !ok || !t.Cond.IsConst() || t.Cond.Const.Kind != ir.KindBool {
			continue
		}
		if t.Cond.Const.Bool() {
			b.Term = &ir.Goto{Target: t.Then}
		} else {
			b.Term = &ir.Goto{Target: t.Else}
		}
		n++
	}
	return n
}

// removeUnreachable drops blocks no path reaches.
func removeUnreachable(fn *ir.Func) int {
	reach := map[*ir.Block]bool{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		if b.Term == nil {
			return
		}
		for _, s := range b.Term.Succs() {
			walk(s)
		}
	}
	walk(fn.Entry())
	if len(reach) == len(fn.Blocks) {
		return 0
	}
	kept := fn.Blocks[:0]
	removed := 0
	for _, b := range fn.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	fn.Blocks = kept
	fn.Renumber()
	return removed
}

// eliminateDead removes pure instructions whose results are never used.
// Instructions that can fault (Div/Rem by zero, Loads that may trap on nil
// or out-of-range indices) are kept so the optimizer never erases an
// observable runtime error; calls, stores, prints, allocs and intrinsics
// are kept for their effects.
func eliminateDead(fn *ir.Func) int {
	used := map[*ir.Local]bool{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for _, o := range in.Uses() {
				if o.Local != nil {
					used[o.Local] = true
				}
			}
		}
		if b.Term != nil {
			for _, o := range b.Term.Uses() {
				if o.Local != nil {
					used[o.Local] = true
				}
			}
		}
	}
	n := 0
	for _, b := range fn.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			dead := false
			switch i := in.(type) {
			case *ir.BinOp:
				if i.Op != ir.Div && i.Op != ir.Rem {
					dead = !used[i.Dst]
				}
			case *ir.UnOp:
				dead = !used[i.Dst]
			case *ir.Mov:
				dead = !used[i.Dst]
			}
			if dead {
				n++
			} else {
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
	}
	return n
}
