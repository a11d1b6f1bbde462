package core

import (
	"fmt"
	"sort"
	"strings"

	"dca/internal/cfg"
	"dca/internal/dcart"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/sandbox"
)

// ContextResult is the verdict for one calling context of a loop. The
// paper's prototype is context-insensitive (§IV-E: "Loop candidates can
// exhibit commutativity in some execution contexts, but not in others...
// We leave this for future work"); AnalyzeLoopContexts implements that
// extension: for each calling context the permutation schedules are applied
// to that context's invocations only (all others replay in original order),
// so any live-out or output divergence is attributable to the context under
// test, and a loop that is commutative under one caller and order-dependent
// under another gets a split verdict instead of a blanket rejection.
type ContextResult struct {
	// Context is the call chain ("main>driver>kernel").
	Context     string
	Verdict     Verdict
	Reason      string
	Invocations int
}

// ContextReport is the context-sensitive outcome for one loop.
type ContextReport struct {
	LoopID   string
	Contexts []*ContextResult
}

// Commutative returns the contexts found commutative.
func (r *ContextReport) Commutative() []*ContextResult {
	var out []*ContextResult
	for _, c := range r.Contexts {
		if c.Verdict == Commutative {
			out = append(out, c)
		}
	}
	return out
}

// Context returns the result for an exact context string, or nil.
func (r *ContextReport) Context(ctx string) *ContextResult {
	for _, c := range r.Contexts {
		if c.Context == ctx {
			return c
		}
	}
	return nil
}

func (r *ContextReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.LoopID)
	for _, c := range r.Contexts {
		fmt.Fprintf(&b, "  %-40s %-16s", c.Context, c.Verdict)
		if c.Reason != "" {
			fmt.Fprintf(&b, " (%s)", c.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// AnalyzeLoopContexts runs DCA's dynamic stage on one loop once per calling
// context observed in the golden run.
func AnalyzeLoopContexts(prog *ir.Program, fnName string, loopIndex int, opt Options) (*ContextReport, error) {
	opt.normalize()
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("core: no function %q", fnName)
	}
	loops := cfg.Loops(prog, fn)
	if loopIndex < 0 || loopIndex >= len(loops) {
		return nil, fmt.Errorf("core: %s has %d loops", fnName, len(loops))
	}
	rep := &ContextReport{LoopID: loops[loopIndex].ID()}

	inst, err := instrument.Loop(prog, fnName, loopIndex)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// run executes one sandboxed replay, retrying Budget/Timeout traps at
	// doubled limits like the context-insensitive dynamic stage does.
	run := func(s dcart.Schedule, only string) (*dcart.Runtime, string, *sandbox.Trap) {
		var rt *dcart.Runtime
		var out strings.Builder
		oc, _ := sandbox.RunRetry(nil, inst.Prog, func() interp.Config {
			rt = dcart.NewRuntime(s)
			rt.TrackContexts = true
			rt.OnlyContext = only
			out.Reset()
			return interp.Config{Out: &out, Runtime: rt}
		}, opt.Limits(), nil, opt.Retries)
		return rt, out.String(), oc.Trap
	}

	golden, goldenOut, trap := run(dcart.Identity{}, "")
	if trap != nil {
		return nil, fmt.Errorf("core: golden run failed (%s): %w", trap.Kind, trap)
	}
	counts := map[string]int{}
	for _, ctx := range golden.Contexts {
		counts[ctx]++
	}
	var ctxs []string
	for ctx := range counts {
		ctxs = append(ctxs, ctx)
	}
	sort.Strings(ctxs)

	for _, ctx := range ctxs {
		res := &ContextResult{Context: ctx, Verdict: Commutative, Invocations: counts[ctx]}
		rep.Contexts = append(rep.Contexts, res)
		for _, sched := range opt.Schedules {
			rt, out, trap := run(sched, ctx)
			if trap != nil {
				switch trap.Kind {
				case sandbox.Fault:
					// Golden completed; a fault under this context's
					// permutation is divergent observable behaviour.
					res.Verdict = NonCommutative
					res.Reason = fmt.Sprintf("schedule %s faulted where the golden run did not: %v", sched.Name(), trap.Err)
				case sandbox.Budget, sandbox.Timeout:
					res.Verdict = ResourceExhausted
					res.Reason = fmt.Sprintf("schedule %s hit its %s limit: %v", sched.Name(), trap.Kind, trap.Err)
				default: // Panic
					res.Verdict = Failed
					res.Reason = fmt.Sprintf("internal panic during schedule %s: %v", sched.Name(), trap.Err)
				}
				break
			}
			if why := compareContextRun(golden, goldenOut, rt, out, sched); why != "" {
				res.Verdict = NonCommutative
				res.Reason = why
				break
			}
		}
	}
	return rep, nil
}

// compareContextRun compares a selective-permutation run against golden:
// all snapshots (every context) and the program output must match, since
// only the context under test was permuted.
func compareContextRun(golden *dcart.Runtime, goldenOut string, rt *dcart.Runtime, out string, sched dcart.Schedule) string {
	if out != goldenOut {
		return fmt.Sprintf("schedule %s changed program output", sched.Name())
	}
	if len(rt.Snapshots) != len(golden.Snapshots) {
		return fmt.Sprintf("schedule %s changed invocation count (%d vs %d)", sched.Name(), len(rt.Snapshots), len(golden.Snapshots))
	}
	for i := range rt.Snapshots {
		if rt.Snapshots[i] != golden.Snapshots[i] {
			return fmt.Sprintf("schedule %s changed live-outs of invocation %d", sched.Name(), i)
		}
	}
	return ""
}
