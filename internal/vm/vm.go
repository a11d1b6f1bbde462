// Package vm is a register bytecode VM for the IR: the fast executor behind
// the dynamic commutativity stage. Each ir.Program is compiled once (flat
// instruction array, interned constants, fused load+binop and cmp+branch
// superinstructions, calls resolved at compile time) and the compiled form
// is memoized on the program, so one compilation serves the golden run and
// every permuted replay. Execution uses a tight dispatch loop with an
// arena-allocated value stack and heap, and folds the step budget and
// context-cancellation polling into a single dispatch-counter comparison
// per retired instruction.
//
// The VM reproduces the tree-walking interpreter's contract exactly: step
// counts, block counts, output bytes, BudgetError/CancelError taxonomy and
// texts, error wrapping per frame, Runtime intrinsics (via interp.Env), and
// panic behaviour. internal/sandbox switches between the two executors
// transparently; the tree-walker stays available behind -no-vm as the
// differential-testing oracle (see dca fuzz's exec-divergence leg).
//
// Arena lifetime rules: frames and their register slices live on per-machine
// LIFO arenas and are reused after the frame returns — a Runtime must not
// retain a *interp.Frame or an intrinsic args slice beyond the intrinsic
// call (the in-tree runtimes copy what they keep). Heap objects are carved
// from append-only chunks that stay reachable through the program's own
// references, so escaping a ref is always safe.
package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"dca/internal/interp"
	"dca/internal/ir"
)

// disabled flips the package-wide executor preference; the zero value means
// the VM is on. Cleared via SetEnabled (the -no-vm flag).
var disabled atomic.Bool

// Enabled reports whether the VM is the preferred executor.
func Enabled() bool { return !disabled.Load() }

// SetEnabled turns the VM on or off process-wide (-no-vm sets false; the
// tree-walker then runs everything).
func SetEnabled(v bool) { disabled.Store(!v) }

// Supported reports whether cfg can run on the VM. Tracer and StepHook
// subscribe to per-instruction events the VM does not raise; those runs
// stay on the tree-walker. A config carrying NoVM opted out per execution
// (the server's per-request `no_vm`), without touching the process-wide
// preference other requests share.
func Supported(cfg interp.Config) bool {
	return cfg.Tracer == nil && cfg.StepHook == nil && !cfg.NoVM
}

// Machine executes one program. Not safe for concurrent use; distinct
// machines may share the program's compiled code freely.
type Machine struct {
	code  *progCode
	out   io.Writer
	rt    interp.Runtime
	loops *interp.LoopRecorder
	ctx   context.Context

	steps    int64
	maxSteps int64
	stopAt   int64 // next steps value that needs the slow path
	nextPoll int64 // next context poll point (multiple of 256)

	nextID   int64
	maxHeap  int64
	outBytes int64
	maxOut   int64

	blockCt  map[*ir.Block]int64
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
		loops:    cfg.Loops,
		ctx:      cfg.Ctx,
		maxSteps: max,
		maxHeap:  cfg.MaxHeapObjects,
		maxOut:   cfg.MaxOutput,
		stack:    m.stack,
		frames:   m.frames,
		heap:     m.heap,
		printBuf: m.printBuf,
		argBuf:   m.argBuf,
	}
	if cfg.CountBlocks {
		m.blockCt = map[*ir.Block]int64{}
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

// Run executes prog from main() on a fresh machine (the VM counterpart of
// interp.Run).
func Run(prog *ir.Program, cfg interp.Config) (*interp.Result, error) {
	m := New(prog, cfg)
	main := prog.Func("main")
	if main == nil {
		return nil, fmt.Errorf("interp: program %q has no main function", prog.Name)
	}
	ret, err := m.Call(main, nil, nil)
	if err != nil {
		return nil, err
	}
	return &interp.Result{Steps: m.steps, BlockCount: m.blockCt, Ret: ret}, nil
}

// Steps returns the instructions retired so far (interp.Env).
func (m *Machine) Steps() int64 { return m.steps }

// BlockCounts returns per-block execution counts (nil unless enabled).
func (m *Machine) BlockCounts() map[*ir.Block]int64 { return m.blockCt }

// Program returns the program under execution.
func (m *Machine) Program() *ir.Program { return m.code.prog }

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
	m.stopAt = m.maxSteps + 1
	if m.nextPoll < m.stopAt {
		m.stopAt = m.nextPoll
	}
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
	if len(fc.blocks) == 0 {
		// The tree-walker panics indexing Blocks[0]; reproduce it.
		_ = fc.fn.Entry()
	}
	regs := m.stack.push(fc.nLocals)
	fr := m.frames.push()
	*fr = interp.Frame{Fn: fc.fn, Locals: regs, Parent: parent, Depth: depth}
	for i, p := range fc.fn.Params {
		regs[p.Index] = args[i]
	}
	ret, err := m.exec(fc, fr, regs)
	if m.loops != nil {
		m.loops.Return(depth)
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

// trip is the slow path behind the fused dispatch-counter check: budget
// first (exactly the interpreter's order), then a context poll every 256
// steps, then the next stop point is rearmed.
func (m *Machine) trip(fc *fnCode, pc int32) error {
	if m.steps > m.maxSteps {
		return &interp.BudgetError{Resource: "steps", Fn: fc.fn.Name, Block: fc.blkOf(pc).Name, Steps: m.steps, Limit: m.maxSteps}
	}
	if err := m.ctx.Err(); err != nil {
		return &interp.CancelError{Fn: fc.fn.Name, Block: fc.blkOf(pc).Name, Steps: m.steps, Cause: err}
	}
	m.nextPoll += 256
	m.stopAt = m.maxSteps + 1
	if m.nextPoll < m.stopAt {
		m.stopAt = m.nextPoll
	}
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

// enter counts a block entry when block counting is on and returns its pc.
func (m *Machine) enter(fc *fnCode, bi int32) int32 {
	if bi < 0 {
		nilBlockPanic()
	}
	bl := &fc.blocks[bi]
	if m.blockCt != nil {
		m.blockCt[bl.b] += bl.cost
	}
	return bl.pc
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
	// Block indices of fc.blocks are positions in Fn.Blocks, which is what
	// the loop recorder counts by.
	var loops *interp.FuncLoops
	if m.loops != nil {
		loops = m.loops.Func(fc.fn)
	}
	pc := m.enter(fc, 0)
	if loops != nil {
		loops.Enter(fr.Depth, 0)
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
				regs[in.a] = ir.FloatVal(-x.F)
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
			if m.loops != nil {
				m.loops.OnLoad(obj, idx)
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
			v := get(regs, consts, in.c)
			if m.loops != nil && m.loops.Active() {
				m.loops.OnStore(obj, idx, v.Equal(obj.Elems[idx]))
			}
			obj.Elems[idx] = v
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
						line = append(line, v.S...)
					case ir.KindInt:
						line = strconv.AppendInt(line, v.I, 10)
					case ir.KindFloat:
						line = strconv.AppendFloat(line, v.F, 'g', -1, 64)
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
			pc = m.enter(fc, in.d)
			if loops != nil {
				loops.Enter(fr.Depth, int(in.d))
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
			pc = m.enter(fc, bi)
			if loops != nil {
				loops.Enter(fr.Depth, int(bi))
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
			if m.loops != nil {
				m.loops.OnLoad(obj, idx)
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
			pc = m.enter(fc, bi)
			if loops != nil {
				loops.Enter(fr.Depth, int(bi))
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
		switch op {
		case ir.Add:
			return ir.FloatVal(x.F + y.F), nil
		case ir.Sub:
			return ir.FloatVal(x.F - y.F), nil
		case ir.Mul:
			return ir.FloatVal(x.F * y.F), nil
		case ir.Div:
			if y.F != 0 {
				return ir.FloatVal(x.F / y.F), nil
			}
		case ir.Lt:
			return ir.BoolVal(x.F < y.F), nil
		case ir.Le:
			return ir.BoolVal(x.F <= y.F), nil
		case ir.Gt:
			return ir.BoolVal(x.F > y.F), nil
		case ir.Ge:
			return ir.BoolVal(x.F >= y.F), nil
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
