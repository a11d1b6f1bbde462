// Package parallel executes a DCA-instrumented loop with its payload
// iterations distributed over goroutine workers — the repo's stand-in for
// the paper's OpenMP code generation (§IV-C). It follows the same recipe as
// Tournavitis et al. [8]: the environment object is privatized per worker,
// scalar reductions are re-combined with their operator after the join, and
// loops whose shared state cannot be privatized are refused.
//
// The executor reuses the instrumented program: at @rt_iterator_permute it
// hijacks the driver — payload calls are issued from a worker pool, each
// worker running its own interpreter over the shared heap, and the
// sequential IR driver loop is then skipped.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/sandbox"
	"dca/internal/scalar"
)

// Options configures parallel execution.
type Options struct {
	// Workers is the goroutine pool size (default GOMAXPROCS).
	Workers int
	// Out receives program output.
	Out io.Writer
	// MaxSteps bounds each worker's execution (0 = interpreter default).
	MaxSteps int64
	// Chunk is the scheduling chunk size (default: n/workers, static).
	Chunk int
	// Timeout bounds the whole execution's wall-clock time (0 = none). On
	// expiry every worker and the driver are cancelled and RunLoop returns
	// an error matching interp.ErrCancelled.
	Timeout time.Duration
	// Inject deterministically trips traps inside worker executions — used
	// to test that a panicking or faulting worker cannot crash or deadlock
	// the pool. The injector's trip counter is shared across workers.
	Inject *sandbox.Injector
}

// Result reports a parallel execution.
type Result struct {
	Invocations int
	Iterations  int64
	Workers     int
}

// RunLoop executes the instrumented program with the tested loop's payload
// running in parallel. The caller is responsible for only parallelizing
// loops that DCA found commutative and whose memory accesses are
// race-free under the privatization/reduction scheme (doall loops and
// scalar reductions); RunLoop itself refuses loops whose environment
// fields it cannot privatize.
func RunLoop(inst *instrument.Instrumented, opt Options) (*Result, error) {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	ctx := context.Background()
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	rt, err := newRuntime(inst, opt)
	if err != nil {
		return nil, err
	}
	rt.ctx = ctx
	if _, err := interp.Run(inst.Prog, interp.Config{Out: opt.Out, Runtime: rt, MaxSteps: opt.MaxSteps, Ctx: ctx}); err != nil {
		return nil, err
	}
	return &Result{Invocations: rt.invocations, Iterations: rt.iterations, Workers: opt.Workers}, nil
}

// combiner merges a worker-private accumulator into the shared value.
type combiner struct {
	identity func(cur ir.Value) ir.Value
	combine  func(global, private ir.Value) ir.Value
}

func combinerFor(op ir.BinKind, t ir.ValKind) (*combiner, bool) {
	switch op {
	case ir.Add:
		return &combiner{
			identity: func(cur ir.Value) ir.Value {
				if t == ir.KindFloat {
					return ir.FloatVal(0)
				}
				return ir.IntVal(0)
			},
			combine: func(g, p ir.Value) ir.Value {
				if t == ir.KindFloat {
					return ir.FloatVal(g.Float() + p.Float())
				}
				return ir.IntVal(g.I + p.I)
			},
		}, true
	case ir.Mul:
		return &combiner{
			identity: func(cur ir.Value) ir.Value {
				if t == ir.KindFloat {
					return ir.FloatVal(1)
				}
				return ir.IntVal(1)
			},
			combine: func(g, p ir.Value) ir.Value {
				if t == ir.KindFloat {
					return ir.FloatVal(g.Float() * p.Float())
				}
				return ir.IntVal(g.I * p.I)
			},
		}, true
	case ir.BitAnd:
		return &combiner{
			identity: func(cur ir.Value) ir.Value { return ir.IntVal(-1) },
			combine:  func(g, p ir.Value) ir.Value { return ir.IntVal(g.I & p.I) },
		}, true
	case ir.BitOr:
		return &combiner{
			identity: func(cur ir.Value) ir.Value { return ir.IntVal(0) },
			combine:  func(g, p ir.Value) ir.Value { return ir.IntVal(g.I | p.I) },
		}, true
	case ir.BitXor:
		return &combiner{
			identity: func(cur ir.Value) ir.Value { return ir.IntVal(0) },
			combine:  func(g, p ir.Value) ir.Value { return ir.IntVal(g.I ^ p.I) },
		}, true
	}
	return nil, false
}

// rtImpl hijacks the DCA runtime protocol for parallel execution.
type rtImpl struct {
	inst *instrument.Instrumented
	opt  Options
	ctx  context.Context
	// plan: per env field, nil = shared read-only, else reduction combiner.
	fieldComb []*combiner

	records     [][]ir.Value
	invocations int
	iterations  int64
}

func newRuntime(inst *instrument.Instrumented, opt Options) (*rtImpl, error) {
	rt := &rtImpl{inst: inst, opt: opt}
	// Classify env fields: written fields must be recognized reductions.
	written := inst.Sep.PayloadDefSet
	classOf := map[*ir.Local]scalar.Carried{}
	for _, c := range inst.Carried {
		classOf[c.Local] = c
	}
	rt.fieldComb = make([]*combiner, len(inst.Sep.EnvLocals))
	for i, l := range inst.Sep.EnvLocals {
		if !written[l] {
			continue // read-only: share
		}
		c, carried := classOf[l]
		if !carried || c.Class != scalar.Reduction {
			return nil, fmt.Errorf("parallel: env field %q is written but is not a recognized reduction (class %v): needs ordered commit", l.Name, c.Class)
		}
		comb, ok := combinerFor(c.Op, valKind(l))
		if !ok {
			return nil, fmt.Errorf("parallel: no combiner for reduction op %s on %q", c.Op, l.Name)
		}
		rt.fieldComb[i] = comb
	}
	return rt, nil
}

func valKind(l *ir.Local) ir.ValKind {
	switch l.Type.String() {
	case "float":
		return ir.KindFloat
	}
	return ir.KindInt
}

// Intrinsic implements interp.Runtime.
func (rt *rtImpl) Intrinsic(ev interp.Env, _ *interp.Frame, name string, args []ir.Value) (ir.Value, error) {
	switch name {
	case instrument.RTLinearize:
		tup := make([]ir.Value, len(args))
		copy(tup, args)
		rt.records = append(rt.records, tup)
		return ir.Value{}, nil
	case instrument.RTPermute:
		env := args[0]
		if env.IsNilRef() {
			return ir.Value{}, errors.New("parallel: nil environment")
		}
		if err := rt.runParallel(ev, env.Ref); err != nil {
			return ir.Value{}, err
		}
		rt.invocations++
		rt.iterations += int64(len(rt.records))
		rt.records = rt.records[:0]
		return ir.Value{}, nil
	case instrument.RTNext:
		return ir.BoolVal(false), nil // driver already ran in parallel
	case instrument.RTGet:
		return ir.Value{}, errors.New("parallel: unexpected rt_iterator_get")
	case instrument.RTVerify:
		return ir.Value{}, nil
	}
	return ir.Value{}, fmt.Errorf("parallel: unknown intrinsic %q", name)
}

// firstError picks the most informative worker error: a fault, panic, or
// budget exhaustion over the secondary cancellations it caused in siblings.
func firstError(errs []error) error {
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if sandbox.Classify(err) == sandbox.Timeout {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	return cancelled
}

// runParallel fans the recorded iterations out over the worker pool.
func (rt *rtImpl) runParallel(parent interp.Env, env *ir.Object) error {
	n := len(rt.records)
	if n == 0 {
		return nil
	}
	workers := rt.opt.Workers
	if workers > n {
		workers = n
	}
	payload := rt.inst.Prog.Func(rt.inst.Payload.Payload.Name)
	if payload == nil {
		return errors.New("parallel: payload function missing")
	}
	// Private env per worker.
	envs := make([]*ir.Object, workers)
	for w := 0; w < workers; w++ {
		priv := &ir.Object{
			ID:       parent.NewObjectID(),
			TypeName: env.TypeName,
			Struct:   env.Struct,
			Elems:    append([]ir.Value(nil), env.Elems...),
		}
		for i, comb := range rt.fieldComb {
			if comb != nil {
				priv.Elems[i] = comb.identity(env.Elems[i])
			}
		}
		envs[w] = priv
	}
	// Static chunked schedule.
	var wg sync.WaitGroup
	errs := make([]error, workers)
	chunk := rt.opt.Chunk
	if chunk <= 0 {
		chunk = (n + workers - 1) / workers
	}
	next := 0
	bounds := make([][2]int, 0, workers)
	for w := 0; w < workers && next < n; w++ {
		hi := next + chunk
		if w == workers-1 || hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{next, hi})
		next = hi
	}
	// One faulting worker cancels its siblings so the pool joins promptly
	// instead of letting them run their chunks to completion (or forever).
	base := rt.ctx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	for w, bd := range bounds {
		wg.Add(1)
		go func(w int, lo, hi int) {
			defer wg.Done()
			// A panicking worker must not take the process down or leave
			// the pool waiting: convert the panic to a structured error and
			// cancel the siblings.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("parallel: worker %d panicked: %v", w, r)
					cancel()
				}
			}()
			wi := interp.New(rt.inst.Prog, interp.Config{Out: rt.opt.Out, MaxSteps: rt.opt.MaxSteps, Ctx: ctx, Trip: rt.opt.Inject.StepTrip()})
			envArg := ir.RefVal(envs[w])
			for k := lo; k < hi; k++ {
				if ctx.Err() != nil {
					errs[w] = &interp.CancelError{Fn: payload.Name, Steps: wi.Steps(), Cause: ctx.Err()}
					return
				}
				args := append(append([]ir.Value(nil), rt.records[k]...), envArg)
				if _, err := wi.Call(payload, args, nil); err != nil {
					switch sandbox.Classify(err) {
					case sandbox.Budget:
						errs[w] = fmt.Errorf("parallel: worker %d exhausted its budget at iteration %d: %w", w, k, err)
					case sandbox.Timeout:
						errs[w] = err // cancelled by a sibling or the deadline
					default:
						errs[w] = fmt.Errorf("parallel: worker %d faulted at iteration %d: %w", w, k, err)
					}
					cancel()
					return
				}
			}
		}(w, bd[0], bd[1])
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return err
	}
	// Combine.
	for i, comb := range rt.fieldComb {
		if comb == nil {
			continue
		}
		acc := env.Elems[i]
		for w := range bounds {
			acc = comb.combine(acc, envs[w].Elems[i])
		}
		env.Elems[i] = acc
	}
	return nil
}
