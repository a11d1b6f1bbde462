package ir

// Clone deep-copies a function: fresh locals, blocks, instructions and
// terminators. The instrumentation pass clones a function before rewriting
// its loops so the original stays analyzable.
func (f *Func) Clone() *Func {
	g := &Func{Name: f.Name, Result: f.Result, Pos: f.Pos, Prog: f.Prog}
	lm := make(map[*Local]*Local, len(f.Locals))
	for _, l := range f.Locals {
		nl := &Local{Name: l.Name, Index: l.Index, Type: l.Type, Param: l.Param, Synth: l.Synth}
		g.Locals = append(g.Locals, nl)
		lm[l] = nl
		if l.Param {
			g.Params = append(g.Params, nl)
		}
	}
	bm := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{Index: b.Index, Name: b.Name, Pos: b.Pos}
		g.Blocks = append(g.Blocks, nb)
		bm[b] = nb
	}
	op := func(o Operand) Operand {
		if o.Local != nil {
			return Operand{Local: lm[o.Local]}
		}
		return o
	}
	ops := func(os []Operand) []Operand {
		if os == nil {
			return nil
		}
		out := make([]Operand, len(os))
		for i, o := range os {
			out[i] = op(o)
		}
		return out
	}
	loc := func(l *Local) *Local {
		if l == nil {
			return nil
		}
		return lm[l]
	}
	for _, b := range f.Blocks {
		nb := bm[b]
		for _, in := range b.Instrs {
			nb.Instrs = append(nb.Instrs, cloneInstr(in, op, ops, loc))
		}
		switch t := b.Term.(type) {
		case *If:
			nb.Term = &If{Cond: op(t.Cond), Then: bm[t.Then], Else: bm[t.Else]}
		case *Goto:
			nb.Term = &Goto{Target: bm[t.Target]}
		case *Ret:
			if t.Val == nil {
				nb.Term = &Ret{}
			} else {
				v := op(*t.Val)
				nb.Term = &Ret{Val: &v}
			}
		}
	}
	return g
}

// BlockFor returns f's block at b's position in src. When f is src.Clone()
// and neither was edited since, that block is b's copy.
func (f *Func) BlockFor(src *Func, b *Block) *Block { return f.Blocks[src.Position(b)] }

// LocalFor returns f's local at l's index. When f is a Func.Clone of l's
// function, that local is l's copy: locals are only ever appended.
func (f *Func) LocalFor(l *Local) *Local { return f.Locals[l.Index] }

func cloneInstr(in Instr, op func(Operand) Operand, ops func([]Operand) []Operand, loc func(*Local) *Local) Instr {
	switch i := in.(type) {
	case *BinOp:
		return &BinOp{Dst: loc(i.Dst), Op: i.Op, X: op(i.X), Y: op(i.Y)}
	case *UnOp:
		return &UnOp{Dst: loc(i.Dst), Op: i.Op, X: op(i.X)}
	case *Mov:
		return &Mov{Dst: loc(i.Dst), Src: op(i.Src)}
	case *Load:
		return &Load{Dst: loc(i.Dst), Base: op(i.Base), Index: op(i.Index), FieldName: i.FieldName}
	case *Store:
		return &Store{Base: op(i.Base), Index: op(i.Index), Src: op(i.Src), FieldName: i.FieldName}
	case *Alloc:
		return &Alloc{Dst: loc(i.Dst), Struct: i.Struct, Elem: i.Elem, Count: op(i.Count)}
	case *Call:
		return &Call{Dst: loc(i.Dst), Callee: i.Callee, Builtin: i.Builtin, Args: ops(i.Args)}
	case *Print:
		return &Print{Args: ops(i.Args)}
	case *Intrinsic:
		return &Intrinsic{Dst: loc(i.Dst), Name: i.Name, Args: ops(i.Args)}
	}
	panic("ir: unknown instruction in clone")
}
