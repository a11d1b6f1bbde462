// Package outline implements payload outlining (§IV-A2): given a separable
// loop, it extracts the payload region into a fresh function
//
//	payload$<fn>$L<k>(iter0, iter1, ..., env *Env$<fn>$L<k>)
//
// taking the per-iteration iterator values by value and the loop-carried /
// live-in / live-out scalars through a synthesized environment object. The
// environment makes the outlined payload re-entrant: the sequential driver
// shares one env across iterations (reductions still accumulate), and the
// parallel executor can privatize env fields per worker.
package outline

import (
	"fmt"
	"sort"

	"dca/internal/ir"
	"dca/internal/iterrec"
	"dca/internal/types"
)

// Result describes an outlined payload.
type Result struct {
	Payload  *ir.Func
	EnvType  *types.StructInfo
	PtrType  *types.Type // pointer to EnvType
	EnvIndex map[*ir.Local]int
	// IterParams are the payload parameters carrying iterator values, in
	// the order of sep.IterLocals; EnvParam is the trailing env parameter.
	IterParams []*ir.Local
	EnvParam   *ir.Local
}

// Outline builds the payload function for the separation and registers it
// (and its env struct) with the program owning sep.Fn.
func Outline(sep *iterrec.Separation) (*Result, error) {
	if !sep.OK {
		return nil, fmt.Errorf("outline: loop %s is not separable: %s", sep.Loop.ID(), sep.Reason)
	}
	fn := sep.Fn
	prog := fn.Prog
	base := fmt.Sprintf("%s$L%d", fn.Name, sep.Loop.Index)

	// Environment struct: one field per shared payload local.
	var fields []types.FieldInfo
	envIndex := map[*ir.Local]int{}
	for i, l := range sep.EnvLocals {
		fields = append(fields, types.FieldInfo{Name: "v_" + l.Name, Type: l.Type})
		envIndex[l] = i
	}
	envSI := types.NewStructInfo("Env$"+base, fields)
	if prog.Structs == nil {
		prog.Structs = map[string]*types.StructInfo{}
	}
	prog.Structs[envSI.Name] = envSI
	envPtr := &types.Type{Kind: types.Pointer, Struct: envSI}

	out := ir.NewFunc("payload$"+base, types.VoidType)
	out.Pos = sep.Loop.Header.Pos

	// Locals: mirror every original local (payload code references a subset;
	// unreferenced mirrors are harmless and keep the remapping trivial).
	lmap := map[*ir.Local]*ir.Local{}
	res := &Result{Payload: out, EnvType: envSI, PtrType: envPtr, EnvIndex: envIndex}
	for _, il := range sep.IterLocals {
		p := out.NewParam("it_"+il.Name, il.Type)
		lmap[il] = p
		res.IterParams = append(res.IterParams, p)
	}
	res.EnvParam = out.NewParam("env", envPtr)
	for _, l := range fn.Locals {
		if _, done := lmap[l]; done {
			continue
		}
		nl := out.NewLocal(l.Name, l.Type)
		nl.Synth = l.Synth
		lmap[l] = nl
	}

	// Blocks: entry (prologue), one copy per region block, epilogue.
	entry := out.NewBlock("entry")
	epilogue := out.NewBlock("epilogue")

	regionBlocks := region(sep)
	bmap := map[*ir.Block]*ir.Block{}
	for _, b := range regionBlocks {
		bmap[b] = out.NewBlock("p_" + b.Name)
	}

	op := func(o ir.Operand) ir.Operand {
		if o.Local != nil {
			return ir.LocalOp(lmap[o.Local])
		}
		return o
	}
	ops := func(os []ir.Operand) []ir.Operand {
		if os == nil {
			return nil
		}
		r := make([]ir.Operand, len(os))
		for i, o := range os {
			r[i] = op(o)
		}
		return r
	}
	loc := func(l *ir.Local) *ir.Local {
		if l == nil {
			return nil
		}
		return lmap[l]
	}
	cloneInto := func(dst *ir.Block, instrs []ir.Instr) error {
		for _, in := range instrs {
			switch i := in.(type) {
			case *ir.BinOp:
				dst.Append(&ir.BinOp{Dst: loc(i.Dst), Op: i.Op, X: op(i.X), Y: op(i.Y)})
			case *ir.UnOp:
				dst.Append(&ir.UnOp{Dst: loc(i.Dst), Op: i.Op, X: op(i.X)})
			case *ir.Mov:
				dst.Append(&ir.Mov{Dst: loc(i.Dst), Src: op(i.Src)})
			case *ir.Load:
				dst.Append(&ir.Load{Dst: loc(i.Dst), Base: op(i.Base), Index: op(i.Index), FieldName: i.FieldName})
			case *ir.Store:
				dst.Append(&ir.Store{Base: op(i.Base), Index: op(i.Index), Src: op(i.Src), FieldName: i.FieldName})
			case *ir.Alloc:
				dst.Append(&ir.Alloc{Dst: loc(i.Dst), Struct: i.Struct, Elem: i.Elem, Count: op(i.Count)})
			case *ir.Call:
				dst.Append(&ir.Call{Dst: loc(i.Dst), Callee: i.Callee, Builtin: i.Builtin, Args: ops(i.Args)})
			default:
				return unsupported(in)
			}
		}
		return nil
	}

	// retarget maps an original successor block to its block in the
	// outlined function; edges leaving the region go to the epilogue.
	retarget := func(s *ir.Block) *ir.Block {
		if nb, ok := bmap[s]; ok {
			return nb
		}
		return epilogue
	}
	cloneTerm := func(dst *ir.Block, t ir.Term) {
		switch t := t.(type) {
		case *ir.If:
			dst.Term = &ir.If{Cond: op(t.Cond), Then: retarget(t.Then), Else: retarget(t.Else)}
		case *ir.Goto:
			dst.Term = &ir.Goto{Target: retarget(t.Target)}
		default:
			// Region blocks never return (checked by separation).
			dst.Term = &ir.Goto{Target: epilogue}
		}
	}

	for _, b := range regionBlocks {
		nb := bmap[b]
		if err := cloneInto(nb, regionInstrs(sep, b)); err != nil {
			return nil, err
		}
		if b == sep.Cont.Block && sep.Cont.Index > 0 {
			// The run ends inside the block; control continues into the
			// iterator suffix, i.e. leaves the region.
			nb.Term = &ir.Goto{Target: epilogue}
		} else {
			cloneTerm(nb, b.Term)
		}
	}

	// Prologue: load env fields into locals, then enter the region.
	for _, l := range sep.EnvLocals {
		entry.Append(&ir.Load{
			Dst:       lmap[l],
			Base:      ir.LocalOp(res.EnvParam),
			Index:     ir.IntOp(int64(envIndex[l])),
			FieldName: envSI.Fields[envIndex[l]].Name,
		})
	}
	entry.Term = &ir.Goto{Target: bmap[sep.B0]}

	// Epilogue: store env fields back, return.
	for _, l := range sep.EnvLocals {
		epilogue.Append(&ir.Store{
			Base:      ir.LocalOp(res.EnvParam),
			Index:     ir.IntOp(int64(envIndex[l])),
			Src:       ir.LocalOp(lmap[l]),
			FieldName: envSI.Fields[envIndex[l]].Name,
		})
	}
	epilogue.Term = &ir.Ret{}

	prog.AddFunc(out)
	if err := out.Verify(); err != nil {
		return nil, fmt.Errorf("outline: generated payload is malformed: %w", err)
	}
	return res, nil
}

// Check reports the error Outline would return for a payload instruction
// it cannot copy, without building anything: the separation alone decides
// whether the loop can be outlined.
func Check(sep *iterrec.Separation) error {
	for _, b := range region(sep) {
		for _, in := range regionInstrs(sep, b) {
			switch in.(type) {
			case *ir.BinOp, *ir.UnOp, *ir.Mov, *ir.Load, *ir.Store, *ir.Alloc, *ir.Call: // what cloneInto copies
			default:
				return unsupported(in)
			}
		}
	}
	return nil
}

func unsupported(in ir.Instr) error {
	return fmt.Errorf("outline: unsupported instruction %q in payload", in)
}

// region returns the blocks the outlined payload copies, in copy order:
// B0, every payload-side block, and the continuation block when its payload
// run ends mid-block (mixed block with an iterator suffix), the latter two
// by block index.
func region(sep *iterrec.Separation) []*ir.Block {
	blocks := []*ir.Block{sep.B0}
	seen := map[*ir.Block]bool{sep.B0: true}
	for b := range sep.PayloadSide {
		if !seen[b] {
			seen[b] = true
			blocks = append(blocks, b)
		}
	}
	if sep.Cont.Index > 0 && !seen[sep.Cont.Block] {
		blocks = append(blocks, sep.Cont.Block)
	}
	sort.Slice(blocks[1:], func(i, j int) bool {
		return blocks[i+1].Index < blocks[j+1].Index
	})
	return blocks
}

// regionInstrs returns the payload instructions of one region block.
func regionInstrs(sep *iterrec.Separation, b *ir.Block) []ir.Instr {
	lo, hi := 0, len(b.Instrs)
	if r, ok := sep.Runs[b]; ok {
		lo, hi = r.Lo, r.Hi
	}
	if b == sep.B0 {
		lo = sep.P0
	}
	if b == sep.Cont.Block && sep.Cont.Index > 0 {
		hi = sep.Cont.Index
	}
	return b.Instrs[lo:hi]
}
