// Package vm is a register bytecode VM for the IR: the fast executor behind
// the dynamic commutativity stage. Each ir.Program is compiled once (flat
// instruction array, interned constants, fused load+binop and cmp+branch
// superinstructions, calls resolved at compile time) and the compiled form
// is memoized on the program, so one compilation serves the golden run and
// every permuted replay. Execution uses a tight dispatch loop with an
// arena-allocated value stack and heap, and folds the step budget,
// context-cancellation polling and the step trip into a single
// dispatch-counter comparison per retired instruction.
//
// The VM reproduces the tree-walking interpreter's contract exactly: step
// counts, output bytes, BudgetError/CancelError taxonomy and texts, error
// wrapping per frame, Runtime intrinsics (via interp.Env), interp.Tracer
// events (same points, same order), the step trip, and panic behaviour. A
// run without a tracer pays one nil check per event site.
// internal/sandbox runs every execution on the VM, and internal/parallel
// its workers; the tree-walker stays as its differential oracle (the
// parity tests here and dca fuzz's exec-divergence leg).
//
// Arena lifetime rules: frames and their register slices live on per-machine
// LIFO arenas and are reused after the frame returns — a Runtime or Tracer
// must not retain a *interp.Frame, its Locals or an intrinsic args slice
// beyond the callback (the in-tree runtimes copy what they keep). Heap
// objects are carved from append-only chunks that stay reachable through
// the program's own references, so escaping a ref is always safe — until
// Release resets the chunks. So a machine whose objects another run may
// still reach must not be released before that run has returned: a
// parallel worker's payload can link what it allocates into the driver's
// heap (a[i] = new Node), so internal/parallel never releases a worker
// machine. A machine whose run panicked is never released either.
package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"dca/internal/interp"
	"dca/internal/ir"
)

// Machine executes one program. Not safe for concurrent use; distinct
// machines may share the program's compiled code freely.
type Machine struct {
	code   *progCode
	out    io.Writer
	rt     interp.Runtime
	tracer interp.Tracer
	ctx    context.Context
	onStep interp.StepTrip

	steps    int64
	maxSteps int64
	stopAt   int64 // next steps value that needs the slow path
	nextPoll int64 // next context poll point (multiple of 256)

	nextID   int64
	maxHeap  int64
	outBytes int64
	maxOut   int64

	printBuf []byte
	argBuf   []ir.Value

	stack  valArena
	frames frameArena
	heap   heapArena

	extra map[*ir.Func]*fnCode // ad-hoc code for funcs outside the program
}

// machinePool recycles machines — and, crucially, their arenas — across
// runs. The dynamic stage creates thousands of short-lived machines; with
// pooling, their register stacks and heap chunks are reused instead of
// churned through the garbage collector.
var machinePool = sync.Pool{New: func() any { return new(Machine) }}

// New creates a machine for prog, compiling it if this program has never
// executed before. Machines come from a pool; callers that can prove the
// run's values do not escape should hand them back via Release.
func New(prog *ir.Program, cfg interp.Config) *Machine {
	max := cfg.MaxSteps
	if max == 0 {
		max = 1_000_000_000
	}
	m := machinePool.Get().(*Machine)
	*m = Machine{
		code:     compiled(prog),
		out:      cfg.Out,
		rt:       cfg.Runtime,
		tracer:   cfg.Tracer,
		ctx:      cfg.Ctx,
		onStep:   cfg.Trip,
		maxSteps: max,
		maxHeap:  cfg.MaxHeapObjects,
		maxOut:   cfg.MaxOutput,
		stack:    m.stack,
		frames:   m.frames,
		heap:     m.heap,
		printBuf: m.printBuf,
		argBuf:   m.argBuf,
	}
	return m
}

// Release resets the machine and returns it (arenas included) to the pool.
// Only call it when nothing produced by the run is referenced afterwards:
// no returned ir.Value holding a heap reference, and no Runtime that
// retained heap references beyond the run (the in-tree runtimes keep only
// digests, strings, and counters). The sandbox releases machines after it
// has extracted an outcome; arbitrary callers (tests, tools) may simply
// drop the machine instead.
func (m *Machine) Release() {
	m.stack.reset()
	m.frames.reset()
	m.heap.reset()
	clear(m.argBuf)
	*m = Machine{
		stack:    m.stack,
		frames:   m.frames,
		heap:     m.heap,
		printBuf: m.printBuf[:0],
		argBuf:   m.argBuf,
	}
	machinePool.Put(m)
}

// Steps returns the instructions retired so far (interp.Env).
func (m *Machine) Steps() int64 { return m.steps }

// NewObjectID mints a fresh heap object ID (interp.Env).
func (m *Machine) NewObjectID() int64 {
	m.nextID++
	return m.nextID
}

// Call invokes fn with args under parent, with the interpreter's exact
// entry checks and error surface.
func (m *Machine) Call(fn *ir.Func, args []ir.Value, parent *interp.Frame) (ir.Value, error) {
	if len(args) != len(fn.Params) {
		return ir.Value{}, fmt.Errorf("interp: call %s with %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	m.nextPoll = math.MaxInt64
	if m.ctx != nil {
		m.nextPoll = (m.steps>>8 + 1) << 8
	}
	m.arm()
	return m.call(m.fnCodeFor(fn), args, parent)
}

// fnCodeFor resolves fn's bytecode; functions outside the compiled program
// (callable on the tree-walker via a raw *ir.Func) compile ad hoc into a
// machine-private table.
func (m *Machine) fnCodeFor(fn *ir.Func) *fnCode {
	if fc, ok := m.code.byFn[fn]; ok {
		return fc
	}
	if fc, ok := m.extra[fn]; ok {
		return fc
	}
	fc := &fnCode{fn: fn, nLocals: len(fn.Locals)}
	compileFn(m.code, fc)
	if m.extra == nil {
		m.extra = map[*ir.Func]*fnCode{}
	}
	m.extra[fn] = fc
	return fc
}

func (m *Machine) call(fc *fnCode, args []ir.Value, parent *interp.Frame) (ir.Value, error) {
	depth := 0
	if parent != nil {
		depth = parent.Depth + 1
	}
	if depth > 10000 {
		return ir.Value{}, fmt.Errorf("interp: call stack overflow in %s", fc.fn.Name)
	}
	regs := m.stack.push(fc.nLocals)
	fr := m.frames.push()
	*fr = interp.Frame{Fn: fc.fn, Locals: regs, Parent: parent, Depth: depth}
	for i, p := range fc.fn.Params {
		regs[p.Index] = args[i]
	}
	if m.tracer != nil {
		m.tracer.OnCall(fr)
	}
	if len(fc.blocks) == 0 {
		// The tree-walker panics indexing Blocks[0]; reproduce it.
		_ = fc.fn.Entry()
	}
	ret, err := m.exec(fc, fr, regs)
	if m.tracer != nil {
		m.tracer.OnRet(fr)
	}
	m.frames.pop()
	m.stack.pop()
	return ret, err
}

// get decodes an operand: register when o >= 0, constant-pool entry when
// negative.
func get(regs, consts []ir.Value, o int32) ir.Value {
	if o >= 0 {
		return regs[o]
	}
	return consts[^o]
}

// arm sets stopAt to the next step that needs the slow path: the smallest
// of budget + 1, the next context poll and a step trip still ahead.
func (m *Machine) arm() {
	m.stopAt = m.maxSteps + 1
	if m.nextPoll < m.stopAt {
		m.stopAt = m.nextPoll
	}
	if at := m.onStep.At; at > m.steps && at < m.stopAt {
		m.stopAt = at
	}
}

// trip is the slow path behind the fused dispatch-counter check, in the
// interpreter's order: the budget, then a context poll every 256 steps,
// then the step trip. It rearms the next stop point.
func (m *Machine) trip(fc *fnCode, pc int32) error {
	if m.steps > m.maxSteps {
		return &interp.BudgetError{Resource: "steps", Fn: fc.fn.Name, Block: fc.blkOf(pc).Name, Steps: m.steps, Limit: m.maxSteps}
	}
	if m.steps == m.nextPoll {
		if err := m.ctx.Err(); err != nil {
			return &interp.CancelError{Fn: fc.fn.Name, Block: fc.blkOf(pc).Name, Steps: m.steps, Cause: err}
		}
		m.nextPoll += 256
	}
	if m.steps == m.onStep.At {
		if err := m.onStep.Fire(fc.fn.Name); err != nil {
			return err
		}
	}
	m.arm()
	return nil
}

// wrap adds one frame of error context, exactly as the interpreter wraps
// every instruction-level error.
func wrap(fc *fnCode, in ir.Instr, err error) error {
	return fmt.Errorf("%s: %s: %w", fc.fn.Name, in, err)
}

func (m *Machine) budgetErr(resource string, limit int64, fc *fnCode, pc int32) error {
	return &interp.BudgetError{Resource: resource, Fn: fc.fn.Name, Block: fc.blkOf(pc).Name, Steps: m.steps, Limit: limit}
}

// enter returns block bi's pc. It stays small enough to inline: callers
// raise the tracer's block event.
func (fc *fnCode) enter(bi int32) int32 {
	if bi < 0 {
		nilBlockPanic()
	}
	return fc.blocks[bi].pc
}

// nilBlockPanic reproduces the tree-walker's panic when a terminator names
// a nil successor block.
func nilBlockPanic() {
	var b *ir.Block
	sink = len(b.Instrs)
}

var sink int

func (m *Machine) argScratch(n int) []ir.Value {
	if cap(m.argBuf) < n {
		m.argBuf = make([]ir.Value, n)
	}
	return m.argBuf[:n]
}

func (m *Machine) exec(fc *fnCode, fr *interp.Frame, regs []ir.Value) (ir.Value, error) {
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			return ir.Value{}, &interp.CancelError{Fn: fc.fn.Name, Block: fc.blocks[0].b.Name, Steps: m.steps, Cause: err}
		}
	}
	ins := fc.ins
	consts := fc.consts
	pc := fc.enter(0)
	if m.tracer != nil {
		m.tracer.OnBlock(fr, fc.blocks[0].b)
	}
	for {
		in := &ins[pc]
		switch in.op {
		case opMov:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			regs[in.a] = get(regs, consts, in.b)
			pc++

		case opBin:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			x := get(regs, consts, in.b)
			y := get(regs, consts, in.c)
			if x.Kind == ir.KindInt && y.Kind == ir.KindInt {
				// Non-trapping integer ops inline; Div/Rem (which can
				// trap) and the rarer kinds go through binop.
				switch ir.BinKind(in.k) {
				case ir.Add:
					regs[in.a] = ir.IntVal(x.I + y.I)
					pc++
					continue
				case ir.Sub:
					regs[in.a] = ir.IntVal(x.I - y.I)
					pc++
					continue
				case ir.Mul:
					regs[in.a] = ir.IntVal(x.I * y.I)
					pc++
					continue
				case ir.Lt:
					regs[in.a] = ir.BoolVal(x.I < y.I)
					pc++
					continue
				case ir.Le:
					regs[in.a] = ir.BoolVal(x.I <= y.I)
					pc++
					continue
				case ir.Gt:
					regs[in.a] = ir.BoolVal(x.I > y.I)
					pc++
					continue
				case ir.Ge:
					regs[in.a] = ir.BoolVal(x.I >= y.I)
					pc++
					continue
				case ir.Eq:
					regs[in.a] = ir.BoolVal(x.I == y.I)
					pc++
					continue
				case ir.Ne:
					regs[in.a] = ir.BoolVal(x.I != y.I)
					pc++
					continue
				}
			}
			v, err := binop(ir.BinKind(in.k), x, y)
			if err != nil {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), err)
			}
			regs[in.a] = v
			pc++

		case opNeg:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			x := get(regs, consts, in.b)
			switch x.Kind {
			case ir.KindInt:
				regs[in.a] = ir.IntVal(-x.I)
			case ir.KindFloat:
				regs[in.a] = ir.FloatVal(-x.Float())
			default:
				return ir.Value{}, wrap(fc, fc.in1Of(pc), fmt.Errorf("neg of %s", x))
			}
			pc++

		case opNot:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			regs[in.a] = ir.BoolVal(!get(regs, consts, in.b).Bool())
			pc++

		case opLoad:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			base := get(regs, consts, in.b)
			if base.IsNilRef() {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), errors.New("nil dereference"))
			}
			idx := int(get(regs, consts, in.c).I)
			obj := base.Ref
			if idx < 0 || idx >= len(obj.Elems) {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), fmt.Errorf("index %d out of range [0,%d)", idx, len(obj.Elems)))
			}
			if m.tracer != nil {
				m.tracer.OnLoad(fr, fc.in1Of(pc).(*ir.Load), obj, idx)
			}
			regs[in.a] = obj.Elems[idx]
			pc++

		case opStore:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			base := get(regs, consts, in.a)
			if base.IsNilRef() {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), errors.New("nil dereference"))
			}
			idx := int(get(regs, consts, in.b).I)
			obj := base.Ref
			if idx < 0 || idx >= len(obj.Elems) {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), fmt.Errorf("index %d out of range [0,%d)", idx, len(obj.Elems)))
			}
			if m.tracer != nil {
				m.tracer.OnStore(fr, fc.in1Of(pc).(*ir.Store), obj, idx)
			}
			obj.Elems[idx] = get(regs, consts, in.c)
			pc++

		case opAllocS:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			if m.maxHeap > 0 && m.nextID >= m.maxHeap {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), m.budgetErr("heap-objects", m.maxHeap, fc, pc))
			}
			ai := &fc.allocs[in.d]
			obj := m.heap.newObj()
			elems := m.heap.newVals(len(ai.si.Fields))
			for i, f := range ai.si.Fields {
				elems[i] = ir.ZeroValue(f.Type)
			}
			*obj = ir.Object{ID: m.NewObjectID(), TypeName: ai.typeName, Struct: ai.si, Elems: elems}
			regs[in.a] = ir.RefVal(obj)
			pc++

		case opAllocA:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			if m.maxHeap > 0 && m.nextID >= m.maxHeap {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), m.budgetErr("heap-objects", m.maxHeap, fc, pc))
			}
			nv := get(regs, consts, in.b)
			if nv.I < 0 {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), fmt.Errorf("negative array length %d", nv.I))
			}
			if nv.I > 64<<20 {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), fmt.Errorf("array length %d too large", nv.I))
			}
			ai := &fc.allocs[in.d]
			n := int(nv.I)
			obj := m.heap.newObj()
			elems := m.heap.newVals(n)
			fill(elems, ai.zero)
			*obj = ir.Object{ID: m.NewObjectID(), TypeName: ai.typeName, Elem: ai.elem, Elems: elems}
			regs[in.a] = ir.RefVal(obj)
			pc++

		case opCall:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			n := int(in.n)
			buf := m.argScratch(n)
			pool := fc.argPool[in.b : int(in.b)+n]
			for i, o := range pool {
				buf[i] = get(regs, consts, o)
			}
			v, err := m.call(fc.calls[in.d], buf, fr)
			if err != nil {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), err)
			}
			if in.a >= 0 {
				regs[in.a] = v
			}
			pc++

		case opCallB:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			n := int(in.n)
			buf := m.argScratch(n)
			pool := fc.argPool[in.b : int(in.b)+n]
			for i, o := range pool {
				buf[i] = get(regs, consts, o)
			}
			v, err := interp.EvalBuiltin(fc.names[in.d], buf)
			if err != nil {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), err)
			}
			if in.a >= 0 {
				regs[in.a] = v
			}
			pc++

		case opIntr:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			name := fc.names[in.d]
			if m.rt == nil {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), fmt.Errorf("intrinsic @%s with no runtime installed", name))
			}
			n := int(in.n)
			buf := m.argScratch(n)
			pool := fc.argPool[in.b : int(in.b)+n]
			for i, o := range pool {
				buf[i] = get(regs, consts, o)
			}
			v, err := m.rt.Intrinsic(m, fr, name, buf)
			if err != nil {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), err)
			}
			if in.a >= 0 {
				regs[in.a] = v
			}
			pc++

		case opPrint:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			if m.out != nil {
				line := m.printBuf[:0]
				pool := fc.argPool[in.b : int(in.b)+int(in.n)]
				for k, o := range pool {
					if k > 0 {
						line = append(line, ' ')
					}
					v := get(regs, consts, o)
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
				m.printBuf = line
				m.outBytes += int64(len(line))
				if m.maxOut > 0 && m.outBytes > m.maxOut {
					return ir.Value{}, wrap(fc, fc.in1Of(pc), m.budgetErr("output-bytes", m.maxOut, fc, pc))
				}
				m.out.Write(line)
			}
			pc++

		case opGoto:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			pc = fc.enter(in.d)
			if m.tracer != nil {
				m.tracer.OnBlock(fr, fc.blocks[in.d].b)
			}

		case opIf:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			bi := in.c
			if get(regs, consts, in.b).Bool() {
				bi = in.d
			}
			pc = fc.enter(bi)
			if m.tracer != nil {
				m.tracer.OnBlock(fr, fc.blocks[bi].b)
			}

		case opRet:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			if in.c != 0 {
				return get(regs, consts, in.b), nil
			}
			return ir.Value{}, nil

		case opLoadBin:
			// Component 1: the load, with its own step accounting.
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			base := get(regs, consts, in.b)
			if base.IsNilRef() {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), errors.New("nil dereference"))
			}
			idx := int(get(regs, consts, in.c).I)
			obj := base.Ref
			if idx < 0 || idx >= len(obj.Elems) {
				return ir.Value{}, wrap(fc, fc.in1Of(pc), fmt.Errorf("index %d out of range [0,%d)", idx, len(obj.Elems)))
			}
			if m.tracer != nil {
				m.tracer.OnLoad(fr, fc.in1Of(pc).(*ir.Load), obj, idx)
			}
			v := obj.Elems[idx]
			regs[in.a] = v
			// Component 2: the binop.
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			ext := fc.ext[in.d : in.d+3]
			var x, y ir.Value
			switch ext[2] {
			case 0:
				x, y = v, get(regs, consts, ext[1])
			case 1:
				x, y = get(regs, consts, ext[1]), v
			default:
				x, y = v, v
			}
			if x.Kind == ir.KindInt && y.Kind == ir.KindInt {
				switch ir.BinKind(in.k) {
				case ir.Add:
					regs[ext[0]] = ir.IntVal(x.I + y.I)
					pc++
					continue
				case ir.Sub:
					regs[ext[0]] = ir.IntVal(x.I - y.I)
					pc++
					continue
				case ir.Mul:
					regs[ext[0]] = ir.IntVal(x.I * y.I)
					pc++
					continue
				}
			}
			r, err := binop(ir.BinKind(in.k), x, y)
			if err != nil {
				return ir.Value{}, wrap(fc, fc.in2Of(pc), err)
			}
			regs[ext[0]] = r
			pc++

		case opCmpBr:
			// Component 1: the comparison.
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			cx := get(regs, consts, in.b)
			cy := get(regs, consts, in.c)
			var v ir.Value
			if cx.Kind == ir.KindInt && cy.Kind == ir.KindInt {
				switch ir.BinKind(in.k) {
				case ir.Lt:
					v = ir.BoolVal(cx.I < cy.I)
				case ir.Le:
					v = ir.BoolVal(cx.I <= cy.I)
				case ir.Gt:
					v = ir.BoolVal(cx.I > cy.I)
				case ir.Ge:
					v = ir.BoolVal(cx.I >= cy.I)
				case ir.Eq:
					v = ir.BoolVal(cx.I == cy.I)
				case ir.Ne:
					v = ir.BoolVal(cx.I != cy.I)
				default:
					var err error
					v, err = binop(ir.BinKind(in.k), cx, cy)
					if err != nil {
						return ir.Value{}, wrap(fc, fc.in1Of(pc), err)
					}
				}
			} else {
				var err error
				v, err = binop(ir.BinKind(in.k), cx, cy)
				if err != nil {
					return ir.Value{}, wrap(fc, fc.in1Of(pc), err)
				}
			}
			regs[in.a] = v
			// Component 2: the If terminator.
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			ext := fc.ext[in.d : in.d+2]
			bi := ext[1]
			if v.Bool() {
				bi = ext[0]
			}
			pc = fc.enter(bi)
			if m.tracer != nil {
				m.tracer.OnBlock(fr, fc.blocks[bi].b)
			}

		case opErr:
			m.steps++
			if m.steps >= m.stopAt {
				if err := m.trip(fc, pc); err != nil {
					return ir.Value{}, err
				}
			}
			if in.c == 1 {
				return ir.Value{}, fc.errs[in.d]
			}
			return ir.Value{}, wrap(fc, fc.in1Of(pc), fc.errs[in.d])
		}
	}
}

// binop evaluates a binary operator with inline int and float fast paths;
// everything else (including the error texts) defers to the interpreter's
// EvalBinOp so the two executors cannot drift.
func binop(op ir.BinKind, x, y ir.Value) (ir.Value, error) {
	if x.Kind == ir.KindInt && y.Kind == ir.KindInt {
		switch op {
		case ir.Add:
			return ir.IntVal(x.I + y.I), nil
		case ir.Sub:
			return ir.IntVal(x.I - y.I), nil
		case ir.Mul:
			return ir.IntVal(x.I * y.I), nil
		case ir.Div:
			if y.I != 0 {
				return ir.IntVal(x.I / y.I), nil
			}
		case ir.Rem:
			if y.I != 0 {
				return ir.IntVal(x.I % y.I), nil
			}
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
		case ir.Eq:
			return ir.BoolVal(x.I == y.I), nil
		case ir.Ne:
			return ir.BoolVal(x.I != y.I), nil
		case ir.Lt:
			return ir.BoolVal(x.I < y.I), nil
		case ir.Le:
			return ir.BoolVal(x.I <= y.I), nil
		case ir.Gt:
			return ir.BoolVal(x.I > y.I), nil
		case ir.Ge:
			return ir.BoolVal(x.I >= y.I), nil
		}
	} else if x.Kind == ir.KindFloat && y.Kind == ir.KindFloat {
		xf, yf := x.Float(), y.Float()
		switch op {
		case ir.Add:
			return ir.FloatVal(xf + yf), nil
		case ir.Sub:
			return ir.FloatVal(xf - yf), nil
		case ir.Mul:
			return ir.FloatVal(xf * yf), nil
		case ir.Div:
			if yf != 0 {
				return ir.FloatVal(xf / yf), nil
			}
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
	return interp.EvalBinOp(op, x, y)
}

// fill sets every element of s to v with doubling copies.
func fill(s []ir.Value, v ir.Value) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}
