// Package sandbox wraps the DCA pipeline's executions in fault-isolated,
// budgeted, cancellable cells on the bytecode VM (internal/vm). Every
// replay of the dynamic
// stage (reference run, golden run, permuted runs, baseline profiling runs)
// can trap — a program fault reachable only under permutation, a resource
// budget running out, a wall-clock timeout, or an internal panic in the
// analysis itself — and the pipeline must tell these apart: a fault during
// a permuted replay is an observable behavioural difference (evidence of
// non-commutativity), while a budget exhaustion or an internal panic says
// nothing about the program at all. The sandbox converts each of those
// outcomes into a structured Trap so callers can degrade per loop instead
// of aborting a whole suite analysis.
//
// A deterministic fault Injector can trip any trap kind at the Nth step
// (instruction or block terminator) or the Nth rt_* intrinsic call, so the
// degradation paths themselves are testable.
package sandbox

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/vm"
)

// Kind classifies why a sandboxed execution stopped abnormally.
type Kind int

const (
	// None: the execution completed normally.
	None Kind = iota
	// Fault: the program itself trapped (division by zero, nil dereference,
	// out-of-bounds access, ...) — an observable behaviour of the program
	// under test.
	Fault
	// Budget: a resource budget (steps, heap objects, output bytes) ran out.
	Budget
	// Timeout: the wall-clock limit elapsed or the context was cancelled.
	Timeout
	// Panic: the interpreter or an installed runtime panicked — an analysis
	// bug, never an observable behaviour of the program under test.
	Panic
)

var kindNames = [...]string{"none", "fault", "budget", "timeout", "panic"}

func (k Kind) String() string { return kindNames[k] }

// Trap is the structured description of one abnormal termination.
type Trap struct {
	Kind  Kind
	Err   error  // the underlying error; for panics, a wrapped panic value
	Stack string // goroutine stack at the panic site; panics only
	Steps int64  // instructions retired when the trap fired
}

func (t *Trap) Error() string {
	return fmt.Sprintf("sandbox: %s after %d steps: %v", t.Kind, t.Steps, t.Err)
}

// Unwrap exposes the underlying error for errors.Is / errors.As.
func (t *Trap) Unwrap() error { return t.Err }

// Classify maps an interpreter error to its trap kind.
func Classify(err error) Kind {
	switch {
	case err == nil:
		return None
	case errors.Is(err, interp.ErrBudget):
		return Budget
	case errors.Is(err, interp.ErrCancelled):
		return Timeout
	default:
		return Fault
	}
}

// Limits bounds one execution. Zero fields mean no limit (the interpreter
// still applies its own default step cap).
type Limits struct {
	MaxSteps       int64
	MaxHeapObjects int64
	MaxOutput      int64
	Timeout        time.Duration
}

// Doubled returns the limits with the step budget and timeout doubled —
// the bounded-retry policy for Budget and Timeout traps.
func (l Limits) Doubled() Limits {
	l.MaxSteps *= 2
	l.Timeout *= 2
	return l
}

// Outcome reports one sandboxed execution.
type Outcome struct {
	Result *interp.Result // nil when the run trapped
	Trap   *Trap          // nil when the run completed
}

// OK reports whether the execution completed without a trap.
func (o *Outcome) OK() bool { return o.Trap == nil }

// Run executes prog's main function under cfg on a VM machine inside a
// fault-isolated cell: limits are applied on top of cfg, inj (which may be
// nil) is armed, panics are recovered into a Panic trap, and execution
// errors are classified. ctx may be nil; with lim.Timeout set it is wrapped
// in a deadline.
func Run(ctx context.Context, prog *ir.Program, cfg interp.Config, lim Limits, inj *Injector) (out *Outcome) {
	if ctx == nil {
		ctx = context.Background()
	}
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	cfg.Ctx = ctx
	if lim.MaxSteps > 0 {
		cfg.MaxSteps = lim.MaxSteps
	}
	if lim.MaxHeapObjects > 0 {
		cfg.MaxHeapObjects = lim.MaxHeapObjects
	}
	if lim.MaxOutput > 0 {
		cfg.MaxOutput = lim.MaxOutput
	}
	if inj.Enabled() {
		if inj.spec.AtStep > 0 {
			cfg.Trip = inj.StepTrip()
		}
		if inj.spec.AtIntrinsic > 0 {
			cfg.Runtime = inj.WrapRuntime(cfg.Runtime)
		}
	}
	main := prog.Func("main")
	if main == nil {
		return &Outcome{Trap: &Trap{Kind: Fault, Err: fmt.Errorf("sandbox: program %q has no main function", prog.Name)}}
	}
	m := vm.New(prog, cfg)
	defer func() {
		if r := recover(); r != nil {
			out = &Outcome{Trap: &Trap{
				Kind:  Panic,
				Err:   fmt.Errorf("sandbox: recovered panic: %v", r),
				Stack: string(debug.Stack()),
				Steps: m.Steps(),
			}}
		}
	}()
	ret, err := m.Call(main, nil, nil)
	if err != nil {
		out = &Outcome{Trap: &Trap{Kind: Classify(err), Err: err, Steps: m.Steps()}}
		release(m, ir.Value{})
		return out
	}
	out = &Outcome{Result: &interp.Result{Steps: m.Steps(), Ret: ret}}
	release(m, ret)
	return out
}

// release hands the machine its arenas back once the outcome has been
// extracted. Nothing a sandboxed run produces outlives the Outcome: traps
// and output are strings, verification state is digests, and the step
// count is copied above — so recycling is safe unless main itself returned
// a heap reference, in which case the machine is simply dropped (a
// returned string's text is not carved from the arenas). Panicking runs
// never reach here and are dropped too.
func release(m *vm.Machine, ret ir.Value) {
	if ret.Kind == ir.KindRef && ret.Ref != nil {
		return
	}
	m.Release()
}

// RunRetry executes Run with a fresh configuration from mkCfg, retrying
// Budget and Timeout traps at doubled limits up to retries times — the
// dynamic stage's bounded-retry policy, shared by every caller so the
// policy cannot drift between the loop-level and context-level analyses.
// mkCfg is called once per attempt so the caller can rebuild per-attempt
// state (runtime, output sink) and keep references to the last attempt's.
// Returns the final outcome and the retries actually spent.
//
// A Timeout trap caused by ctx itself being done is never retried: the
// caller cancelled the whole analysis, and a doubled budget cannot buy
// back a dead context.
func RunRetry(ctx context.Context, prog *ir.Program, mkCfg func() interp.Config, lim Limits, inj *Injector, retries int) (*Outcome, int) {
	spent := 0
	for {
		oc := Run(ctx, prog, mkCfg(), lim, inj)
		if oc.OK() {
			return oc, spent
		}
		if ctx != nil && ctx.Err() != nil {
			return oc, spent
		}
		if k := oc.Trap.Kind; (k == Budget || k == Timeout) && spent < retries {
			spent++
			lim = lim.Doubled()
			// Back off before retrying: a timeout trap usually means the
			// host is oversubscribed right now, and re-running immediately
			// at a doubled budget just doubles the pressure. The pause is
			// exponential in the retries already spent and gives way to
			// cancellation instantly.
			if !sleepBackoff(ctx, spent) {
				return oc, spent
			}
			continue
		}
		return oc, spent
	}
}

// Retry backoff tuning. Package variables so tests can compress time.
var (
	retryBackoffBase = 5 * time.Millisecond
	retryBackoffMax  = 250 * time.Millisecond
)

// sleepBackoff pauses retryBackoffBase << (spent-1), capped at
// retryBackoffMax. It reports false when ctx was cancelled during the
// pause — the retry must not run then.
func sleepBackoff(ctx context.Context, spent int) bool {
	d := retryBackoffBase << uint(spent-1)
	if d > retryBackoffMax || d <= 0 {
		d = retryBackoffMax
	}
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Inject describes a deterministic trap to trip during execution.
type Inject struct {
	// AtStep trips the trap at a run's Nth step, an instruction or a block
	// terminator (0 = off).
	AtStep int64
	// AtIntrinsic trips the trap at the Nth rt_* intrinsic call of a run
	// (0 = off).
	AtIntrinsic int64
	// Kind is what to inject: Fault, Budget, or Panic.
	Kind Kind
	// MaxTrips bounds the total number of trips across every run sharing
	// the Injector (0 = unlimited).
	MaxTrips int64
}

// Injector carries an Inject spec plus the cross-run trip counter. One
// Injector may be shared by several runs — including concurrent worker
// runs; the trip counter is atomic.
type Injector struct {
	spec  Inject
	trips atomic.Int64
}

// NewInjector arms an injection spec.
func NewInjector(spec Inject) *Injector { return &Injector{spec: spec} }

// Enabled reports whether the injector (which may be nil) can trip.
func (inj *Injector) Enabled() bool {
	return inj != nil && (inj.spec.AtStep > 0 || inj.spec.AtIntrinsic > 0)
}

// Trips returns how many times the injector has fired so far.
func (inj *Injector) Trips() int64 {
	if inj == nil {
		return 0
	}
	return inj.trips.Load()
}

// tryTrip claims one trip, honouring MaxTrips.
func (inj *Injector) tryTrip() bool {
	n := inj.trips.Add(1)
	if inj.spec.MaxTrips > 0 && n > inj.spec.MaxTrips {
		inj.trips.Add(-1)
		return false
	}
	return true
}

// fire produces the injected trap: it panics for Kind Panic and returns an
// error otherwise.
func (inj *Injector) fire(site string, steps int64) error {
	switch inj.spec.Kind {
	case Panic:
		panic(fmt.Sprintf("sandbox: injected panic at %s (step %d)", site, steps))
	case Budget:
		return &interp.BudgetError{Resource: "injected", Fn: site, Block: "?", Steps: steps, Limit: 0}
	default:
		return fmt.Errorf("sandbox: injected fault at %s (step %d)", site, steps)
	}
}

// StepTrip returns the interp.StepTrip arming AtStep: it trips at step
// AtStep exactly. A run's step count passes any value once, so the trip
// keeps no per-run state and one Injector can arm many runs — including
// concurrent worker runs. Without AtStep it is the zero, disarmed trip.
func (inj *Injector) StepTrip() interp.StepTrip {
	if inj == nil || inj.spec.AtStep <= 0 {
		return interp.StepTrip{}
	}
	return interp.StepTrip{At: inj.spec.AtStep, Fire: inj.fireAtStep}
}

// fireAtStep is the step trip's Fire: it claims one trip, honouring
// MaxTrips, and fires it in fn.
func (inj *Injector) fireAtStep(fn string) error {
	if !inj.tryTrip() {
		return nil
	}
	return inj.fire(fn, inj.spec.AtStep)
}

// WrapRuntime wraps rt so the Nth intrinsic call of the run trips the
// injected trap. Each call creates a fresh per-run counter.
func (inj *Injector) WrapRuntime(rt interp.Runtime) interp.Runtime {
	if inj == nil || inj.spec.AtIntrinsic <= 0 {
		return rt
	}
	return &injectRuntime{inner: rt, inj: inj}
}

type injectRuntime struct {
	inner interp.Runtime
	inj   *Injector
	calls int64
}

func (w *injectRuntime) Intrinsic(ev interp.Env, fr *interp.Frame, name string, args []ir.Value) (ir.Value, error) {
	w.calls++
	if w.calls == w.inj.spec.AtIntrinsic && w.inj.tryTrip() {
		if err := w.inj.fire("@"+name, ev.Steps()); err != nil {
			return ir.Value{}, err
		}
	}
	if w.inner == nil {
		return ir.Value{}, fmt.Errorf("sandbox: intrinsic @%s with no runtime installed", name)
	}
	return w.inner.Intrinsic(ev, fr, name, args)
}
