// Package ir defines the three-address intermediate representation that the
// DCA passes analyze and transform. A Func is a list of basic blocks over a
// flat set of typed locals; memory is a heap of Objects addressed by
// (object, element index) pairs — the same address model the dependence
// profilers trace.
package ir

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dca/internal/source"
	"dca/internal/types"
)

// Program is a compiled MiniC program.
type Program struct {
	Name    string
	Funcs   []*Func
	Structs map[string]*types.StructInfo

	// execCache memoizes an executor-built artifact (the bytecode VM's
	// compiled form) so one compilation serves the golden run and every
	// replay of the same program. See ExecCache.
	execCache atomic.Value
	// memo holds the analysis artifacts derived from the IR (the points-to
	// solution, per-function environments, the fingerprint's program walk),
	// keyed by their producers. See Memo.
	memo sync.Map
}

// ExecCache returns the memoized execution artifact for this program,
// calling build at most effectively once to create it (concurrent first
// callers may both build; one result wins). The artifact must be derived
// purely from the program's IR and safe for concurrent use; callers must
// not mutate the program after the first execution. Clone starts with an
// empty cache, so the transform pipeline (clone → instrument → run) never
// observes a stale artifact.
func (p *Program) ExecCache(build func() any) any {
	if v := p.execCache.Load(); v != nil {
		return v
	}
	v := build()
	if p.execCache.CompareAndSwap(nil, v) {
		return v
	}
	return p.execCache.Load()
}

// Memo returns the analysis artifact stored under key, calling build to
// create it on first use. Each producer keys its artifacts with values of
// a type private to its package, so producers cannot collide. The contract
// is ExecCache's: built at most effectively once (concurrent first callers
// may both build; one result wins), derived purely from the IR, safe for
// concurrent readers, and never stale because Clone and CloneShared start
// with an empty memo. Callers must not mutate the program after the first
// call; a function being rewritten lives in a clone.
func (p *Program) Memo(key any, build func() any) any {
	if v, ok := p.memo.Load(key); ok {
		return v
	}
	v, _ := p.memo.LoadOrStore(key, build())
	return v
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// CloneShared returns a copy of the program in which the named function is
// deep-cloned and every other function is SHARED with the receiver. The
// instrumentation pipeline rewrites exactly one function per loop; sharing
// the rest makes cloning O(one function) instead of O(program) and lets the
// executors reuse per-function artifacts across the clones. Callers must
// treat the shared functions as immutable (every analysis and executor
// already does) and may append new functions freely — the Funcs slice and
// struct table are fresh. The shared functions keep their original Prog
// back-pointer; only the cloned function points at the new program.
func (p *Program) CloneShared(name string) *Program {
	q := &Program{Name: p.Name, Funcs: make([]*Func, 0, len(p.Funcs)+2)}
	if p.Structs != nil {
		q.Structs = make(map[string]*types.StructInfo, len(p.Structs))
		for n, si := range p.Structs {
			q.Structs[n] = si
		}
	}
	for _, f := range p.Funcs {
		if f.Name == name {
			g := f.Clone()
			g.Prog = q
			q.Funcs = append(q.Funcs, g)
		} else {
			q.Funcs = append(q.Funcs, f)
		}
	}
	return q
}

// AddFunc appends a function (used by outlining).
func (p *Program) AddFunc(f *Func) {
	f.Prog = p
	p.Funcs = append(p.Funcs, f)
}

// Clone deep-copies the program (functions, blocks, locals). The struct
// table is copied too — outlining registers env structs on the clone it
// works on, and sharing the map would leak them into the original (and race
// when clones are instrumented concurrently). The StructInfo values stay
// shared: layouts are immutable after construction.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name}
	if p.Structs != nil {
		q.Structs = make(map[string]*types.StructInfo, len(p.Structs))
		for name, si := range p.Structs {
			q.Structs[name] = si
		}
	}
	for _, f := range p.Funcs {
		q.AddFunc(f.Clone())
	}
	return q
}

// Local is a function-local variable slot. Params come first; the IR builder
// introduces synthetic temporaries (Synth) for intermediate results.
type Local struct {
	Name  string
	Index int
	Type  *types.Type
	Param bool
	Synth bool // compiler temporary, not a source variable
}

func (l *Local) String() string { return l.Name }

// Func is a function body in IR form.
type Func struct {
	Name   string
	Params []*Local
	Result *types.Type
	Locals []*Local
	Blocks []*Block
	Prog   *Program
	Pos    source.Pos

	// execCache memoizes an executor-built artifact for this function (the
	// bytecode VM's compiled body). Function-level rather than program-level
	// so that programs built with CloneShared reuse the artifacts of their
	// shared functions. See Program.ExecCache for the contract.
	execCache atomic.Value
}

// ExecCode returns the memoized per-function execution artifact, or nil.
func (f *Func) ExecCode() any { return f.execCache.Load() }

// SetExecCode stores the per-function execution artifact. Concurrent
// stores race benignly: each candidate must be valid on its own, and one
// of them wins.
func (f *Func) SetExecCode(v any) { f.execCache.Store(v) }

// NewFunc creates an empty function with the given result type.
func NewFunc(name string, result *types.Type) *Func {
	return &Func{Name: name, Result: result}
}

// NewLocal appends a fresh local of the given type.
func (f *Func) NewLocal(name string, t *types.Type) *Local {
	l := &Local{Name: name, Index: len(f.Locals), Type: t}
	f.Locals = append(f.Locals, l)
	return l
}

// NewParam appends a fresh parameter local.
func (f *Func) NewParam(name string, t *types.Type) *Local {
	l := f.NewLocal(name, t)
	l.Param = true
	f.Params = append(f.Params, l)
	return l
}

// NewTemp appends a synthetic temporary.
func (f *Func) NewTemp(t *types.Type) *Local {
	l := f.NewLocal(fmt.Sprintf("t%d", len(f.Locals)), t)
	l.Synth = true
	return l
}

// NewBlock appends a fresh, empty block.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Index: len(f.Blocks), Name: fmt.Sprintf("%s%d", name, len(f.Blocks))}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Position returns b's position in f.Blocks, or -1 when b is not one of
// f's blocks. b.Index answers at once unless an edit left it stale.
func (f *Func) Position(b *Block) int {
	if i := b.Index; i >= 0 && i < len(f.Blocks) && f.Blocks[i] == b {
		return i
	}
	for i, x := range f.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}

// Renumber re-assigns block indices after structural edits.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// Block is a basic block: straight-line instructions plus one terminator.
// Pos, when set, is the source position that gave rise to the block (loop
// headers carry the position of their loop statement).
type Block struct {
	Index  int
	Name   string
	Instrs []Instr
	Term   Term
	Pos    source.Pos
}

// Append adds an instruction to the block.
func (b *Block) Append(in Instr) { b.Instrs = append(b.Instrs, in) }

// ---------------------------------------------------------------- Operands

// Operand is either a local read or an immediate constant.
type Operand struct {
	Local *Local
	Const Value // used when Local == nil
}

// LocalOp makes a local-reading operand.
func LocalOp(l *Local) Operand { return Operand{Local: l} }

// ConstOp makes a constant operand.
func ConstOp(v Value) Operand { return Operand{Const: v} }

// IntOp is shorthand for an integer constant operand.
func IntOp(v int64) Operand { return ConstOp(IntVal(v)) }

// IsConst reports whether the operand is an immediate.
func (o Operand) IsConst() bool { return o.Local == nil }

func (o Operand) String() string {
	if o.Local != nil {
		return o.Local.Name
	}
	return o.Const.String()
}

// ---------------------------------------------------------------- Ops

// BinKind is a binary operator.
type BinKind int

// Binary operators. Logical &&/|| are lowered to control flow and never
// appear in IR.
const (
	Add BinKind = iota
	Sub
	Mul
	Div
	Rem
	Shl
	Shr
	BitAnd
	BitOr
	BitXor
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
)

var binNames = [...]string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "==", "!=", "<", "<=", ">", ">="}

func (k BinKind) String() string { return binNames[k] }

// IsComparison reports whether the operator yields a bool.
func (k BinKind) IsComparison() bool { return k >= Eq }

// BinKindFromString maps a MiniC operator spelling to its BinKind.
func BinKindFromString(op string) (BinKind, bool) {
	for i, n := range binNames {
		if n == op {
			return BinKind(i), true
		}
	}
	return 0, false
}

// UnKind is a unary operator.
type UnKind int

// Unary operators.
const (
	Neg UnKind = iota
	Not
)

func (k UnKind) String() string {
	if k == Neg {
		return "-"
	}
	return "!"
}

// ---------------------------------------------------------------- Instrs

// Instr is a non-terminator instruction.
type Instr interface {
	// Def returns the defined local, or nil.
	Def() *Local
	// Uses returns the operands read by the instruction.
	Uses() []Operand
	String() string
	instr()
}

// BinOp is dst = x op y.
type BinOp struct {
	Dst  *Local
	Op   BinKind
	X, Y Operand
}

func (i *BinOp) Def() *Local     { return i.Dst }
func (i *BinOp) Uses() []Operand { return []Operand{i.X, i.Y} }
func (i *BinOp) String() string {
	return fmt.Sprintf("%s = %s %s %s", i.Dst, i.X, i.Op, i.Y)
}
func (i *BinOp) instr() {}

// UnOp is dst = op x.
type UnOp struct {
	Dst *Local
	Op  UnKind
	X   Operand
}

func (i *UnOp) Def() *Local     { return i.Dst }
func (i *UnOp) Uses() []Operand { return []Operand{i.X} }
func (i *UnOp) String() string  { return fmt.Sprintf("%s = %s%s", i.Dst, i.Op, i.X) }
func (i *UnOp) instr()          {}

// Mov is dst = src.
type Mov struct {
	Dst *Local
	Src Operand
}

func (i *Mov) Def() *Local     { return i.Dst }
func (i *Mov) Uses() []Operand { return []Operand{i.Src} }
func (i *Mov) String() string  { return fmt.Sprintf("%s = %s", i.Dst, i.Src) }
func (i *Mov) instr()          {}

// Load is dst = base[index]; for struct field reads Index is the constant
// field number and FieldName names it for printing.
type Load struct {
	Dst       *Local
	Base      Operand
	Index     Operand
	FieldName string // non-empty for struct field access
}

func (i *Load) Def() *Local     { return i.Dst }
func (i *Load) Uses() []Operand { return []Operand{i.Base, i.Index} }
func (i *Load) String() string {
	if i.FieldName != "" {
		return fmt.Sprintf("%s = %s->%s", i.Dst, i.Base, i.FieldName)
	}
	return fmt.Sprintf("%s = %s[%s]", i.Dst, i.Base, i.Index)
}
func (i *Load) instr() {}

// Store is base[index] = src.
type Store struct {
	Base      Operand
	Index     Operand
	Src       Operand
	FieldName string
}

func (i *Store) Def() *Local     { return nil }
func (i *Store) Uses() []Operand { return []Operand{i.Base, i.Index, i.Src} }
func (i *Store) String() string {
	if i.FieldName != "" {
		return fmt.Sprintf("%s->%s = %s", i.Base, i.FieldName, i.Src)
	}
	return fmt.Sprintf("%s[%s] = %s", i.Base, i.Index, i.Src)
}
func (i *Store) instr() {}

// Alloc is dst = new Struct (Struct != nil) or dst = new [count]Elem.
type Alloc struct {
	Dst    *Local
	Struct *types.StructInfo
	Elem   *types.Type
	Count  Operand // arrays only
}

func (i *Alloc) Def() *Local { return i.Dst }
func (i *Alloc) Uses() []Operand {
	if i.Struct != nil {
		return nil
	}
	return []Operand{i.Count}
}
func (i *Alloc) String() string {
	if i.Struct != nil {
		return fmt.Sprintf("%s = new %s", i.Dst, i.Struct.Name)
	}
	return fmt.Sprintf("%s = new [%s]%s", i.Dst, i.Count, i.Elem)
}
func (i *Alloc) instr() {}

// Call is dst = callee(args...). Builtin marks the pure builtins.
type Call struct {
	Dst     *Local // nil for void calls
	Callee  string
	Builtin bool
	Args    []Operand
}

func (i *Call) Def() *Local     { return i.Dst }
func (i *Call) Uses() []Operand { return i.Args }
func (i *Call) String() string {
	args := make([]string, len(i.Args))
	for k, a := range i.Args {
		args[k] = a.String()
	}
	call := fmt.Sprintf("%s(%s)", i.Callee, strings.Join(args, ", "))
	if i.Dst != nil {
		return fmt.Sprintf("%s = %s", i.Dst, call)
	}
	return call
}
func (i *Call) instr() {}

// Print is the I/O side-effect marker; loops containing it are excluded
// from DCA consideration.
type Print struct {
	Args []Operand
}

func (i *Print) Def() *Local     { return nil }
func (i *Print) Uses() []Operand { return i.Args }
func (i *Print) String() string {
	args := make([]string, len(i.Args))
	for k, a := range i.Args {
		args[k] = a.String()
	}
	return fmt.Sprintf("print(%s)", strings.Join(args, ", "))
}
func (i *Print) instr() {}

// Intrinsic is a call into the DCA runtime (rt_iterator_linearize,
// rt_iterator_next, rt_verify, ...), inserted by the instrumentation pass
// and serviced by the interpreter's Runtime hook.
type Intrinsic struct {
	Dst  *Local // may be nil
	Name string
	Args []Operand
}

func (i *Intrinsic) Def() *Local     { return i.Dst }
func (i *Intrinsic) Uses() []Operand { return i.Args }
func (i *Intrinsic) String() string {
	args := make([]string, len(i.Args))
	for k, a := range i.Args {
		args[k] = a.String()
	}
	call := fmt.Sprintf("@%s(%s)", i.Name, strings.Join(args, ", "))
	if i.Dst != nil {
		return fmt.Sprintf("%s = %s", i.Dst, call)
	}
	return call
}
func (i *Intrinsic) instr() {}

// ---------------------------------------------------------------- Terms

// Term is a block terminator.
type Term interface {
	Succs() []*Block
	Uses() []Operand
	String() string
	term()
}

// If branches on a bool operand.
type If struct {
	Cond Operand
	Then *Block
	Else *Block
}

func (t *If) Succs() []*Block { return []*Block{t.Then, t.Else} }
func (t *If) Uses() []Operand { return []Operand{t.Cond} }
func (t *If) String() string {
	return fmt.Sprintf("if %s goto %s else %s", t.Cond, t.Then.Name, t.Else.Name)
}
func (t *If) term() {}

// Goto is an unconditional jump.
type Goto struct{ Target *Block }

func (t *Goto) Succs() []*Block { return []*Block{t.Target} }
func (t *Goto) Uses() []Operand { return nil }
func (t *Goto) String() string  { return "goto " + t.Target.Name }
func (t *Goto) term()           {}

// Ret returns from the function; Val is nil for void returns.
type Ret struct{ Val *Operand }

func (t *Ret) Succs() []*Block { return nil }
func (t *Ret) Uses() []Operand {
	if t.Val == nil {
		return nil
	}
	return []Operand{*t.Val}
}
func (t *Ret) String() string {
	if t.Val == nil {
		return "ret"
	}
	return "ret " + t.Val.String()
}
func (t *Ret) term() {}

// ---------------------------------------------------------------- Printing

func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", p.Name, p.Type)
	}
	b.WriteString(")")
	if f.Result != nil && f.Result.Kind != types.Void {
		fmt.Fprintf(&b, " %s", f.Result)
	}
	b.WriteString(" {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", in)
		}
		if blk.Term != nil {
			fmt.Fprintf(&b, "  %s\n", blk.Term)
		} else {
			b.WriteString("  <no terminator>\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func (p *Program) String() string {
	var b strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}
