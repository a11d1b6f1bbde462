// Package interp is a tree-walking interpreter for the IR and the
// execution contract both executors share: Config, Tracer, StepTrip, the
// step and budget semantics and the error taxonomy. The bytecode VM
// (internal/vm) runs every sandboxed execution to this contract. The
// tree-walker is its differential oracle (the vm parity tests, dca fuzz's
// exec-divergence leg) and still runs the parallel executor
// (internal/parallel) and the linkedlist example.
package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"dca/internal/ir"
)

// ErrBudget is the sentinel matched by errors.Is for every resource-budget
// exhaustion (steps, heap objects, output bytes). The concrete error is a
// *BudgetError carrying the exhaustion site.
var ErrBudget = errors.New("interp: step budget exhausted")

// ErrCancelled is the sentinel matched by errors.Is when execution stopped
// because the configured context was cancelled or its deadline elapsed. The
// concrete error is a *CancelError.
var ErrCancelled = errors.New("interp: execution cancelled")

// BudgetError reports which resource budget ran out and where execution
// stood when it did.
type BudgetError struct {
	Resource string // "steps", "heap-objects", "output-bytes", or "injected"
	Fn       string // function executing at exhaustion
	Block    string // basic block executing at exhaustion
	Steps    int64  // instructions retired at exhaustion
	Limit    int64  // the budget that was exceeded
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("interp: %s budget (%d) exhausted in %s at block %s after %d steps",
		e.Resource, e.Limit, e.Fn, e.Block, e.Steps)
}

// Is reports ErrBudget so callers can classify without knowing the resource.
func (e *BudgetError) Is(target error) bool { return target == ErrBudget }

// CancelError reports where execution stood when the context was done.
type CancelError struct {
	Fn    string
	Block string
	Steps int64
	Cause error // the context's error (context.Canceled or DeadlineExceeded)
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("interp: execution cancelled in %s at block %s after %d steps: %v",
		e.Fn, e.Block, e.Steps, e.Cause)
}

// Is reports ErrCancelled; Unwrap exposes the context error.
func (e *CancelError) Is(target error) bool { return target == ErrCancelled }

func (e *CancelError) Unwrap() error { return e.Cause }

// Frame is one activation record.
type Frame struct {
	Fn     *ir.Func
	Locals []ir.Value
	Parent *Frame
	Depth  int
}

// Tracer receives execution events. A nil tracer costs nothing. Both
// executors raise the same events in the same order. A callback must not
// keep the *Frame it is given or the frame's Locals past its return: the
// VM reuses both once the frame returns.
type Tracer interface {
	// OnBlock fires when control enters a basic block.
	OnBlock(fr *Frame, b *ir.Block)
	// OnLoad fires for every heap read: object plus element index.
	OnLoad(fr *Frame, in *ir.Load, obj *ir.Object, idx int)
	// OnStore fires for every heap write, before the write: obj.Elems[idx]
	// still holds the old value. The stored value is in.Src's: its constant,
	// or fr.Locals[in.Src.Local.Index], since on both executors Locals holds
	// the frame's locals (the VM's registers are the frame's locals).
	OnStore(fr *Frame, in *ir.Store, obj *ir.Object, idx int)
	// OnCall fires after the callee frame is created, before it runs.
	OnCall(fr *Frame)
	// OnRet fires when a frame returns.
	OnRet(fr *Frame)
}

// Env is the executor-side surface a Runtime may use while servicing an
// intrinsic: the retired instruction count and fresh heap-object IDs. Both
// the tree-walking interpreter and the bytecode VM (internal/vm) implement
// it, so one Runtime serves either executor.
type Env interface {
	Steps() int64
	NewObjectID() int64
}

// Runtime services Intrinsic instructions (the rt_* calls inserted by the
// DCA instrumentation pass).
type Runtime interface {
	Intrinsic(env Env, fr *Frame, name string, args []ir.Value) (ir.Value, error)
}

// StepTrip calls Fire once, when a run's step count reaches At. That step
// may be an instruction or a block terminator; the call comes after the
// step's budget check and context poll. A non-nil error stops the run the
// way a budget error does: unwrapped in the frame that tripped, wrapped by
// each calling frame. The zero value never fires; Fire must be set when At
// is positive. The sandbox fault injector arms it.
type StepTrip struct {
	At   int64
	Fire func(fn string) error // fn names the function executing the step
}

// Config controls one execution.
type Config struct {
	Out      io.Writer // print destination; nil discards
	Runtime  Runtime   // intrinsic handler; nil makes intrinsics errors
	Tracer   Tracer    // event hooks; nil disables tracing
	MaxSteps int64     // instruction budget; 0 means 1e9
	// Ctx, when non-nil, cancels execution: the interpreter polls it every
	// few hundred instructions and returns a *CancelError once it is done.
	Ctx context.Context
	// MaxHeapObjects bounds the number of heap allocations (0 = unlimited).
	MaxHeapObjects int64
	// MaxOutput bounds the bytes written through print (0 = unlimited).
	MaxOutput int64
	// Trip, when armed, calls back once at a chosen step (see StepTrip).
	Trip StepTrip
}

// Result reports what an execution did.
type Result struct {
	Steps int64
	Ret   ir.Value
}

// Interp executes IR programs.
type Interp struct {
	prog     *ir.Program
	cfg      Config
	steps    int64
	max      int64
	nextID   int64
	outBytes int64
	printBuf []byte // reusable scratch for Print formatting
}

// New creates an interpreter for prog.
func New(prog *ir.Program, cfg Config) *Interp {
	max := cfg.MaxSteps
	if max == 0 {
		max = 1_000_000_000
	}
	return &Interp{prog: prog, cfg: cfg, max: max}
}

// Run executes prog from main().
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	it := New(prog, cfg)
	main := prog.Func("main")
	if main == nil {
		return nil, fmt.Errorf("interp: program %q has no main function", prog.Name)
	}
	ret, err := it.Call(main, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Steps: it.steps, Ret: ret}, nil
}

// Steps returns the number of instructions executed so far.
func (it *Interp) Steps() int64 { return it.steps }

// NewObjectID mints a fresh heap object ID (also used by the DCA runtime
// when it materializes helper objects).
func (it *Interp) NewObjectID() int64 {
	it.nextID++
	return it.nextID
}

// Call invokes fn with the given argument values under parent.
func (it *Interp) Call(fn *ir.Func, args []ir.Value, parent *Frame) (ir.Value, error) {
	if len(args) != len(fn.Params) {
		return ir.Value{}, fmt.Errorf("interp: call %s with %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	depth := 0
	if parent != nil {
		depth = parent.Depth + 1
	}
	if depth > 10000 {
		return ir.Value{}, fmt.Errorf("interp: call stack overflow in %s", fn.Name)
	}
	fr := &Frame{Fn: fn, Locals: make([]ir.Value, len(fn.Locals)), Parent: parent, Depth: depth}
	for i, p := range fn.Params {
		fr.Locals[p.Index] = args[i]
	}
	if it.cfg.Tracer != nil {
		it.cfg.Tracer.OnCall(fr)
	}
	ret, err := it.exec(fr)
	if it.cfg.Tracer != nil {
		it.cfg.Tracer.OnRet(fr)
	}
	return ret, err
}

func (it *Interp) operand(fr *Frame, o ir.Operand) ir.Value {
	if o.Local != nil {
		return fr.Locals[o.Local.Index]
	}
	return o.Const
}

func (it *Interp) budgetErr(resource string, limit int64, fr *Frame, b *ir.Block) error {
	return &BudgetError{Resource: resource, Fn: fr.Fn.Name, Block: b.Name, Steps: it.steps, Limit: limit}
}

func (it *Interp) exec(fr *Frame) (ir.Value, error) {
	b := fr.Fn.Entry()
	if it.cfg.Ctx != nil {
		if err := it.cfg.Ctx.Err(); err != nil {
			return ir.Value{}, &CancelError{Fn: fr.Fn.Name, Block: b.Name, Steps: it.steps, Cause: err}
		}
	}
	for {
		if it.cfg.Tracer != nil {
			it.cfg.Tracer.OnBlock(fr, b)
		}
		for _, in := range b.Instrs {
			it.steps++
			if it.steps > it.max {
				return ir.Value{}, it.budgetErr("steps", it.max, fr, b)
			}
			if it.cfg.Ctx != nil && it.steps&255 == 0 {
				if err := it.cfg.Ctx.Err(); err != nil {
					return ir.Value{}, &CancelError{Fn: fr.Fn.Name, Block: b.Name, Steps: it.steps, Cause: err}
				}
			}
			if it.steps == it.cfg.Trip.At {
				if err := it.cfg.Trip.Fire(fr.Fn.Name); err != nil {
					return ir.Value{}, err
				}
			}
			if err := it.step(fr, b, in); err != nil {
				return ir.Value{}, fmt.Errorf("%s: %s: %w", fr.Fn.Name, in, err)
			}
		}
		it.steps++
		if it.steps > it.max {
			return ir.Value{}, it.budgetErr("steps", it.max, fr, b)
		}
		if it.cfg.Ctx != nil && it.steps&255 == 0 {
			if err := it.cfg.Ctx.Err(); err != nil {
				return ir.Value{}, &CancelError{Fn: fr.Fn.Name, Block: b.Name, Steps: it.steps, Cause: err}
			}
		}
		if it.steps == it.cfg.Trip.At {
			if err := it.cfg.Trip.Fire(fr.Fn.Name); err != nil {
				return ir.Value{}, err
			}
		}
		switch t := b.Term.(type) {
		case *ir.Goto:
			b = t.Target
		case *ir.If:
			if it.operand(fr, t.Cond).Bool() {
				b = t.Then
			} else {
				b = t.Else
			}
		case *ir.Ret:
			if t.Val == nil {
				return ir.Value{}, nil
			}
			return it.operand(fr, *t.Val), nil
		default:
			return ir.Value{}, fmt.Errorf("interp: %s: block %s has bad terminator", fr.Fn.Name, b.Name)
		}
	}
}

func (it *Interp) step(fr *Frame, b *ir.Block, in ir.Instr) error {
	switch i := in.(type) {
	case *ir.Mov:
		fr.Locals[i.Dst.Index] = it.operand(fr, i.Src)
	case *ir.BinOp:
		v, err := EvalBinOp(i.Op, it.operand(fr, i.X), it.operand(fr, i.Y))
		if err != nil {
			return err
		}
		fr.Locals[i.Dst.Index] = v
	case *ir.UnOp:
		x := it.operand(fr, i.X)
		switch i.Op {
		case ir.Neg:
			switch x.Kind {
			case ir.KindInt:
				fr.Locals[i.Dst.Index] = ir.IntVal(-x.I)
			case ir.KindFloat:
				fr.Locals[i.Dst.Index] = ir.FloatVal(-x.Float())
			default:
				return fmt.Errorf("neg of %s", x)
			}
		case ir.Not:
			fr.Locals[i.Dst.Index] = ir.BoolVal(!x.Bool())
		}
	case *ir.Load:
		base := it.operand(fr, i.Base)
		if base.IsNilRef() {
			return fmt.Errorf("nil dereference")
		}
		idxv := it.operand(fr, i.Index)
		idx := int(idxv.I)
		obj := base.Ref
		if idx < 0 || idx >= len(obj.Elems) {
			return fmt.Errorf("index %d out of range [0,%d)", idx, len(obj.Elems))
		}
		if it.cfg.Tracer != nil {
			it.cfg.Tracer.OnLoad(fr, i, obj, idx)
		}
		fr.Locals[i.Dst.Index] = obj.Elems[idx]
	case *ir.Store:
		base := it.operand(fr, i.Base)
		if base.IsNilRef() {
			return fmt.Errorf("nil dereference")
		}
		idxv := it.operand(fr, i.Index)
		idx := int(idxv.I)
		obj := base.Ref
		if idx < 0 || idx >= len(obj.Elems) {
			return fmt.Errorf("index %d out of range [0,%d)", idx, len(obj.Elems))
		}
		if it.cfg.Tracer != nil {
			it.cfg.Tracer.OnStore(fr, i, obj, idx)
		}
		obj.Elems[idx] = it.operand(fr, i.Src)
	case *ir.Alloc:
		if it.cfg.MaxHeapObjects > 0 && it.nextID >= it.cfg.MaxHeapObjects {
			return it.budgetErr("heap-objects", it.cfg.MaxHeapObjects, fr, b)
		}
		if i.Struct != nil {
			fr.Locals[i.Dst.Index] = ir.RefVal(ir.NewStructObject(it.NewObjectID(), i.Struct))
		} else {
			n := it.operand(fr, i.Count)
			if n.I < 0 {
				return fmt.Errorf("negative array length %d", n.I)
			}
			if n.I > 64<<20 {
				return fmt.Errorf("array length %d too large", n.I)
			}
			fr.Locals[i.Dst.Index] = ir.RefVal(ir.NewArrayObject(it.NewObjectID(), i.Elem, int(n.I)))
		}
	case *ir.Call:
		args := make([]ir.Value, len(i.Args))
		for k, a := range i.Args {
			args[k] = it.operand(fr, a)
		}
		if i.Builtin {
			v, err := EvalBuiltin(i.Callee, args)
			if err != nil {
				return err
			}
			if i.Dst != nil {
				fr.Locals[i.Dst.Index] = v
			}
			return nil
		}
		fn := it.prog.Func(i.Callee)
		if fn == nil {
			return fmt.Errorf("unknown function %q", i.Callee)
		}
		v, err := it.Call(fn, args, fr)
		if err != nil {
			return err
		}
		if i.Dst != nil {
			fr.Locals[i.Dst.Index] = v
		}
	case *ir.Print:
		if it.cfg.Out != nil {
			line := it.printBuf[:0]
			for k, a := range i.Args {
				if k > 0 {
					line = append(line, ' ')
				}
				v := it.operand(fr, a)
				switch v.Kind {
				case ir.KindString:
					line = append(line, v.Str()...)
				case ir.KindInt:
					line = strconv.AppendInt(line, v.I, 10)
				case ir.KindFloat:
					line = strconv.AppendFloat(line, v.Float(), 'g', -1, 64)
				case ir.KindBool:
					if v.I != 0 {
						line = append(line, "true"...)
					} else {
						line = append(line, "false"...)
					}
				case ir.KindNil:
					line = append(line, "nil"...)
				default:
					line = append(line, v.String()...)
				}
			}
			line = append(line, '\n')
			it.printBuf = line
			it.outBytes += int64(len(line))
			if it.cfg.MaxOutput > 0 && it.outBytes > it.cfg.MaxOutput {
				return it.budgetErr("output-bytes", it.cfg.MaxOutput, fr, b)
			}
			it.cfg.Out.Write(line)
		}
	case *ir.Intrinsic:
		if it.cfg.Runtime == nil {
			return fmt.Errorf("intrinsic @%s with no runtime installed", i.Name)
		}
		args := make([]ir.Value, len(i.Args))
		for k, a := range i.Args {
			args[k] = it.operand(fr, a)
		}
		v, err := it.cfg.Runtime.Intrinsic(it, fr, i.Name, args)
		if err != nil {
			return err
		}
		if i.Dst != nil {
			fr.Locals[i.Dst.Index] = v
		}
	default:
		return fmt.Errorf("interp: unknown instruction %T", in)
	}
	return nil
}

// EvalBinOp evaluates a binary operator on constant values with exactly the
// interpreter's semantics; the optimizer uses it for constant folding.
func EvalBinOp(op ir.BinKind, x, y ir.Value) (ir.Value, error) {
	switch op {
	case ir.Eq:
		return ir.BoolVal(x.Equal(y)), nil
	case ir.Ne:
		return ir.BoolVal(!x.Equal(y)), nil
	}
	if x.Kind == ir.KindInt && y.Kind == ir.KindInt {
		switch op {
		case ir.Add:
			return ir.IntVal(x.I + y.I), nil
		case ir.Sub:
			return ir.IntVal(x.I - y.I), nil
		case ir.Mul:
			return ir.IntVal(x.I * y.I), nil
		case ir.Div:
			if y.I == 0 {
				return ir.Value{}, errors.New("integer division by zero")
			}
			return ir.IntVal(x.I / y.I), nil
		case ir.Rem:
			if y.I == 0 {
				return ir.Value{}, errors.New("integer modulo by zero")
			}
			return ir.IntVal(x.I % y.I), nil
		case ir.Shl:
			return ir.IntVal(x.I << uint(y.I&63)), nil
		case ir.Shr:
			return ir.IntVal(x.I >> uint(y.I&63)), nil
		case ir.BitAnd:
			return ir.IntVal(x.I & y.I), nil
		case ir.BitOr:
			return ir.IntVal(x.I | y.I), nil
		case ir.BitXor:
			return ir.IntVal(x.I ^ y.I), nil
		case ir.Lt:
			return ir.BoolVal(x.I < y.I), nil
		case ir.Le:
			return ir.BoolVal(x.I <= y.I), nil
		case ir.Gt:
			return ir.BoolVal(x.I > y.I), nil
		case ir.Ge:
			return ir.BoolVal(x.I >= y.I), nil
		}
	}
	if x.Kind == ir.KindFloat && y.Kind == ir.KindFloat {
		xf, yf := x.Float(), y.Float()
		switch op {
		case ir.Add:
			return ir.FloatVal(xf + yf), nil
		case ir.Sub:
			return ir.FloatVal(xf - yf), nil
		case ir.Mul:
			return ir.FloatVal(xf * yf), nil
		case ir.Div:
			if yf == 0 {
				return ir.Value{}, errors.New("float division by zero")
			}
			return ir.FloatVal(xf / yf), nil
		case ir.Lt:
			return ir.BoolVal(xf < yf), nil
		case ir.Le:
			return ir.BoolVal(xf <= yf), nil
		case ir.Gt:
			return ir.BoolVal(xf > yf), nil
		case ir.Ge:
			return ir.BoolVal(xf >= yf), nil
		}
	}
	if x.Kind == ir.KindString && y.Kind == ir.KindString {
		xs, ys := x.Str(), y.Str()
		switch op {
		case ir.Add:
			return ir.StringVal(xs + ys), nil
		case ir.Lt:
			return ir.BoolVal(xs < ys), nil
		case ir.Le:
			return ir.BoolVal(xs <= ys), nil
		case ir.Gt:
			return ir.BoolVal(xs > ys), nil
		case ir.Ge:
			return ir.BoolVal(xs >= ys), nil
		}
	}
	return ir.Value{}, fmt.Errorf("bad operands for %s: %s, %s", op, x, y)
}

// EvalBuiltin evaluates a pure builtin with exactly the interpreter's
// semantics (shared with the bytecode VM so the two executors cannot
// drift).
func EvalBuiltin(name string, args []ir.Value) (ir.Value, error) {
	switch name {
	case "len":
		if args[0].IsNilRef() {
			return ir.Value{}, errors.New("len of nil")
		}
		return ir.IntVal(int64(len(args[0].Ref.Elems))), nil
	case "float":
		return ir.FloatVal(float64(args[0].I)), nil
	case "int":
		return ir.IntVal(int64(args[0].Float())), nil
	case "sqrt":
		return ir.FloatVal(math.Sqrt(args[0].Float())), nil
	case "abs":
		if args[0].I < 0 {
			return ir.IntVal(-args[0].I), nil
		}
		return args[0], nil
	case "fabs":
		return ir.FloatVal(math.Abs(args[0].Float())), nil
	case "log":
		return ir.FloatVal(math.Log(args[0].Float())), nil
	case "pow":
		return ir.FloatVal(math.Pow(args[0].Float(), args[1].Float())), nil
	}
	return ir.Value{}, fmt.Errorf("unknown builtin %q", name)
}
