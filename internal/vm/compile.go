package vm

import (
	"fmt"

	"dca/internal/ir"
	"dca/internal/types"
)

// Opcodes. The dispatch loop switches on these; Go compiles the dense
// uint8 switch to a jump table.
const (
	opMov     uint8 = iota
	opBin           // a=dst, b=x, c=y, k=BinKind
	opNeg           // a=dst, b=x
	opNot           // a=dst, b=x
	opLoad          // a=dst, b=base, c=index
	opStore         // a=base, b=index, c=src
	opAllocS        // a=dst, d=allocs index (struct)
	opAllocA        // a=dst, b=count, d=allocs index (array)
	opCall          // a=dst|-1, b=argPool off, n=argc, d=calls index
	opCallB         // a=dst|-1, b=argPool off, n=argc, d=names index
	opIntr          // a=dst|-1, b=argPool off, n=argc, d=names index
	opPrint         // b=argPool off, n=argc
	opGoto          // d=target block index
	opIf            // b=cond, d=then block, c=else block
	opRet           // c=1: value at b; c=0: void
	opLoadBin       // fused load+binop: load as opLoad, ext[d]={binDst,other,side}, k=BinKind
	opCmpBr         // fused cmp+If: cmp as opBin, ext[d]={then,else} block indices
	opErr           // d=errs index; c=1: terminator position (raw), else instruction (wrapped)
)

// inst is one bytecode instruction: 20 bytes, flat in fnCode.ins. Operand
// fields b/c (and a for opStore, argPool entries) encode a register index
// when >= 0 and a constant-pool index i as ^i when negative.
type inst struct {
	op uint8
	k  uint8  // BinKind for opBin/opLoadBin/opCmpBr
	n  uint16 // argument count
	a  int32
	b  int32
	c  int32
	d  int32
}

// instMeta is the cold-path side table, parallel to ins: the originating IR
// instruction(s) for error wrapping and the owning block for budget/cancel
// reports. Never touched while dispatch stays on the happy path. Deliberately
// pointer-free (indices into fc.blocks and the block's Instrs), so the two
// large per-instruction tables sit in unscanned spans — the dynamic stage
// compiles one rewritten function per loop, and scanning that garbage was
// measurable against the whole suite.
type instMeta struct {
	blk int32 // index into fc.blocks of the owning block
	in1 int32 // index into the owning block's Instrs; -1 = none (terminator)
	in2 int32 // second component of a fused pair; -1 = none
}

type blockInfo struct {
	b  *ir.Block
	pc int32
}

// allocInfo pre-resolves everything an Alloc site needs: the struct layout
// or the array element type with its precomputed type name and zero value.
type allocInfo struct {
	si       *types.StructInfo
	elem     *types.Type
	typeName string
	zero     ir.Value
}

// callSite records one non-builtin call compiled into a function, for
// validating cached code against a new program: the name, the *ir.Func it
// resolved to (nil if unresolved), and the fnCode linked into calls (nil
// when the site compiled to opErr).
type callSite struct {
	name string
	fn   *ir.Func
	code *fnCode
}

// fnCode is one compiled function.
type fnCode struct {
	fn      *ir.Func
	nLocals int
	ins     []inst
	meta    []instMeta
	blocks  []blockInfo
	consts  []ir.Value // interned constant pool
	argPool []int32    // flattened operand lists for call-like ops
	ext     []int32    // extra operand slots for fused ops
	names   []string   // builtin / intrinsic names
	allocs  []allocInfo
	calls   []*fnCode  // resolved call targets
	errs    []error    // precomputed errors for opErr
	sites   []callSite // call sites, for cross-program cache validation
}

// blkOf resolves the block owning pc (cold paths only).
func (fc *fnCode) blkOf(pc int32) *ir.Block { return fc.blocks[fc.meta[pc].blk].b }

// in1Of / in2Of resolve the originating IR instruction(s) at pc for error
// wrapping (cold paths only).
func (fc *fnCode) in1Of(pc int32) ir.Instr {
	md := &fc.meta[pc]
	if md.in1 < 0 {
		return nil
	}
	return fc.blocks[md.blk].b.Instrs[md.in1]
}

func (fc *fnCode) in2Of(pc int32) ir.Instr {
	md := &fc.meta[pc]
	if md.in2 < 0 {
		return nil
	}
	return fc.blocks[md.blk].b.Instrs[md.in2]
}

// progCode is a compiled program: immutable after compile, shared by every
// Machine executing the program (golden run and all replays).
type progCode struct {
	byFn   map[*ir.Func]*fnCode
	byName map[string]*ir.Func
}

// compiled returns prog's bytecode, compiling at most once per program via
// the IR-level exec cache.
func compiled(prog *ir.Program) *progCode {
	return prog.ExecCache(func() any { return compile(prog) }).(*progCode)
}

func compile(prog *ir.Program) *progCode {
	p := &progCode{
		byFn:   make(map[*ir.Func]*fnCode, len(prog.Funcs)),
		byName: make(map[string]*ir.Func, len(prog.Funcs)),
	}
	for _, fn := range prog.Funcs {
		p.byName[fn.Name] = fn
	}
	// Reuse cached per-function code where it is still valid. Programs built
	// with ir.Program.CloneShared share every function but the rewritten one,
	// so for the dynamic stage — hundreds of instrumented clones of the same
	// program — almost everything here is a cache hit. Cached code for fn is
	// reusable only if every call site still resolves to the same *ir.Func
	// in THIS program and the linked callee code is itself being reused;
	// otherwise the cached code could chain to a stale callee body. The
	// pruning loop runs this to a fixed point (cycles between mutually
	// recursive functions fall out naturally).
	cand := map[*ir.Func]*fnCode{}
	for _, fn := range prog.Funcs {
		if fc, ok := fn.ExecCode().(*fnCode); ok {
			cand[fn] = fc
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fc := range cand {
			ok := true
			for _, s := range fc.sites {
				if p.byName[s.name] != s.fn || (s.code != nil && cand[s.fn] != s.code) {
					ok = false
					break
				}
			}
			if !ok {
				delete(cand, fn)
				changed = true
			}
		}
	}
	var fresh []*fnCode
	for _, fn := range prog.Funcs {
		fc := cand[fn]
		if fc == nil {
			fc = &fnCode{fn: fn, nLocals: len(fn.Locals)}
			fresh = append(fresh, fc)
		}
		p.byFn[fn] = fc
	}
	for _, fc := range fresh {
		compileFn(p, fc)
		fc.fn.SetExecCode(fc)
	}
	return p
}

// constKey interns constants by exact bits (a float's word is its IEEE bit
// pattern, so 0.0 and -0.0 stay distinct) and strings by their text, which
// each string constant holds in an object of its own.
type constKey struct {
	kind ir.ValKind
	i    int64
	s    string
	ref  *ir.Object
}

// fnCompiler carries the per-function interning state.
type fnCompiler struct {
	p      *progCode
	fc     *fnCode
	consts map[constKey]int32
	names  map[string]int32
	blkIdx map[*ir.Block]int32
}

func compileFn(p *progCode, fc *fnCode) {
	c := &fnCompiler{
		p:      p,
		fc:     fc,
		consts: map[constKey]int32{},
		names:  map[string]int32{},
		blkIdx: map[*ir.Block]int32{},
	}
	// The tree-walker follows Term successor pointers, not the Blocks list,
	// so compile the successor closure: Blocks plus any stray reachable
	// block.
	var blocks []*ir.Block
	add := func(b *ir.Block) {
		if b == nil {
			return
		}
		if _, ok := c.blkIdx[b]; !ok {
			c.blkIdx[b] = int32(len(blocks))
			blocks = append(blocks, b)
		}
	}
	for _, b := range fc.fn.Blocks {
		add(b)
	}
	for scan := 0; scan < len(blocks); scan++ {
		if t := blocks[scan].Term; t != nil {
			for _, s := range t.Succs() {
				add(s)
			}
		}
	}
	fc.blocks = make([]blockInfo, len(blocks))
	for bi, b := range blocks {
		fc.blocks[bi] = blockInfo{b: b, pc: int32(len(fc.ins))}
		c.compileBlock(b)
	}
}

func (c *fnCompiler) emit(in inst, m instMeta) {
	c.fc.ins = append(c.fc.ins, in)
	c.fc.meta = append(c.fc.meta, m)
}

func (c *fnCompiler) operand(o ir.Operand) int32 {
	if o.Local != nil {
		return int32(o.Local.Index)
	}
	v := o.Const
	k := constKey{kind: v.Kind, i: v.I, ref: v.Ref}
	if v.Kind == ir.KindString {
		k.s, k.ref = v.Str(), nil
	}
	if i, ok := c.consts[k]; ok {
		return ^i
	}
	i := int32(len(c.fc.consts))
	c.fc.consts = append(c.fc.consts, v)
	c.consts[k] = i
	return ^i
}

func (c *fnCompiler) args(ops []ir.Operand) (int32, uint16) {
	off := int32(len(c.fc.argPool))
	for _, o := range ops {
		c.fc.argPool = append(c.fc.argPool, c.operand(o))
	}
	return off, uint16(len(ops))
}

func (c *fnCompiler) name(s string) int32 {
	if i, ok := c.names[s]; ok {
		return i
	}
	i := int32(len(c.fc.names))
	c.fc.names = append(c.fc.names, s)
	c.names[s] = i
	return i
}

func (c *fnCompiler) errIdx(err error) int32 {
	c.fc.errs = append(c.fc.errs, err)
	return int32(len(c.fc.errs) - 1)
}

func dstIdx(l *ir.Local) int32 {
	if l == nil {
		return -1
	}
	return int32(l.Index)
}

func (c *fnCompiler) compileBlock(b *ir.Block) {
	bi := c.blkIdx[b]
	// Superinstruction selection. cmp+branch: a comparison whose result
	// feeds the block's If directly fuses with the terminator. It wins over
	// load+binop when both match the same BinOp: branches end every block
	// iteration while a fused load only saves decode.
	fuseCB := false
	if ifT, ok := b.Term.(*ir.If); ok && len(b.Instrs) > 0 {
		if bo, ok2 := b.Instrs[len(b.Instrs)-1].(*ir.BinOp); ok2 && bo.Op.IsComparison() && ifT.Cond.Local == bo.Dst {
			fuseCB = true
		}
	}
	nin := len(b.Instrs)
	stop := nin
	if fuseCB {
		stop = nin - 1
	}
	for ii := 0; ii < stop; ii++ {
		// load+binop: a Load whose destination is consumed by the next
		// instruction's BinOp fuses into one decoded superinstruction.
		if ld, ok := b.Instrs[ii].(*ir.Load); ok && ii+1 < stop {
			if bo, ok2 := b.Instrs[ii+1].(*ir.BinOp); ok2 {
				xd := bo.X.Local != nil && bo.X.Local == ld.Dst
				yd := bo.Y.Local != nil && bo.Y.Local == ld.Dst
				if xd || yd {
					side, other := int32(0), int32(0)
					switch {
					case xd && yd:
						side = 2
					case yd:
						side, other = 1, c.operand(bo.X)
					default:
						other = c.operand(bo.Y)
					}
					ext := int32(len(c.fc.ext))
					c.fc.ext = append(c.fc.ext, int32(bo.Dst.Index), other, side)
					c.emit(inst{op: opLoadBin, k: uint8(bo.Op), a: int32(ld.Dst.Index), b: c.operand(ld.Base), c: c.operand(ld.Index), d: ext},
						instMeta{blk: bi, in1: int32(ii), in2: int32(ii + 1)})
					ii++
					continue
				}
			}
		}
		c.compileInstr(b, bi, int32(ii))
	}
	if fuseCB {
		bo := b.Instrs[nin-1].(*ir.BinOp)
		ifT := b.Term.(*ir.If)
		ext := int32(len(c.fc.ext))
		c.fc.ext = append(c.fc.ext, c.target(ifT.Then), c.target(ifT.Else))
		c.emit(inst{op: opCmpBr, k: uint8(bo.Op), a: int32(bo.Dst.Index), b: c.operand(bo.X), c: c.operand(bo.Y), d: ext},
			instMeta{blk: bi, in1: int32(nin - 1), in2: -1})
		return
	}
	c.compileTerm(b)
}

// target returns the block index for a successor, or -1 for a nil
// successor (executed as opNilBlk's nil-dereference panic, like the
// tree-walker).
func (c *fnCompiler) target(b *ir.Block) int32 {
	if b == nil {
		return -1
	}
	return c.blkIdx[b]
}

func (c *fnCompiler) compileInstr(b *ir.Block, bi, ii int32) {
	in := b.Instrs[ii]
	m := instMeta{blk: bi, in1: ii, in2: -1}
	switch i := in.(type) {
	case *ir.Mov:
		c.emit(inst{op: opMov, a: int32(i.Dst.Index), b: c.operand(i.Src)}, m)
	case *ir.BinOp:
		c.emit(inst{op: opBin, k: uint8(i.Op), a: int32(i.Dst.Index), b: c.operand(i.X), c: c.operand(i.Y)}, m)
	case *ir.UnOp:
		op := opNeg
		if i.Op == ir.Not {
			op = opNot
		}
		c.emit(inst{op: op, a: int32(i.Dst.Index), b: c.operand(i.X)}, m)
	case *ir.Load:
		c.emit(inst{op: opLoad, a: int32(i.Dst.Index), b: c.operand(i.Base), c: c.operand(i.Index)}, m)
	case *ir.Store:
		c.emit(inst{op: opStore, a: c.operand(i.Base), b: c.operand(i.Index), c: c.operand(i.Src)}, m)
	case *ir.Alloc:
		ai := int32(len(c.fc.allocs))
		if i.Struct != nil {
			c.fc.allocs = append(c.fc.allocs, allocInfo{si: i.Struct, typeName: i.Struct.Name})
			c.emit(inst{op: opAllocS, a: int32(i.Dst.Index), d: ai}, m)
		} else {
			c.fc.allocs = append(c.fc.allocs, allocInfo{elem: i.Elem, typeName: "[]" + i.Elem.String(), zero: ir.ZeroValue(i.Elem)})
			c.emit(inst{op: opAllocA, a: int32(i.Dst.Index), b: c.operand(i.Count), d: ai}, m)
		}
	case *ir.Call:
		off, n := c.args(i.Args)
		if i.Builtin {
			c.emit(inst{op: opCallB, a: dstIdx(i.Dst), b: off, n: n, d: c.name(i.Callee)}, m)
			return
		}
		callee := c.p.byName[i.Callee]
		if callee == nil {
			c.fc.sites = append(c.fc.sites, callSite{name: i.Callee})
			c.emit(inst{op: opErr, d: c.errIdx(fmt.Errorf("unknown function %q", i.Callee))}, m)
			return
		}
		if len(i.Args) != len(callee.Params) {
			c.fc.sites = append(c.fc.sites, callSite{name: i.Callee, fn: callee})
			c.emit(inst{op: opErr, d: c.errIdx(fmt.Errorf("interp: call %s with %d args, want %d", callee.Name, len(i.Args), len(callee.Params)))}, m)
			return
		}
		ci := int32(len(c.fc.calls))
		c.fc.calls = append(c.fc.calls, c.p.byFn[callee])
		c.fc.sites = append(c.fc.sites, callSite{name: i.Callee, fn: callee, code: c.p.byFn[callee]})
		c.emit(inst{op: opCall, a: dstIdx(i.Dst), b: off, n: n, d: ci}, m)
	case *ir.Print:
		off, n := c.args(i.Args)
		c.emit(inst{op: opPrint, b: off, n: n}, m)
	case *ir.Intrinsic:
		off, n := c.args(i.Args)
		c.emit(inst{op: opIntr, a: dstIdx(i.Dst), b: off, n: n, d: c.name(i.Name)}, m)
	default:
		c.emit(inst{op: opErr, d: c.errIdx(fmt.Errorf("interp: unknown instruction %T", in))}, m)
	}
}

func (c *fnCompiler) compileTerm(b *ir.Block) {
	m := instMeta{blk: c.blkIdx[b], in1: -1, in2: -1}
	switch t := b.Term.(type) {
	case *ir.Goto:
		c.emit(inst{op: opGoto, d: c.target(t.Target)}, m)
	case *ir.If:
		c.emit(inst{op: opIf, b: c.operand(t.Cond), d: c.target(t.Then), c: c.target(t.Else)}, m)
	case *ir.Ret:
		if t.Val == nil {
			c.emit(inst{op: opRet}, m)
		} else {
			c.emit(inst{op: opRet, b: c.operand(*t.Val), c: 1}, m)
		}
	default:
		c.emit(inst{op: opErr, c: 1, d: c.errIdx(fmt.Errorf("interp: %s: block %s has bad terminator", c.fc.fn.Name, b.Name))}, m)
	}
}
