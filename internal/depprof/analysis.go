package depprof

import (
	"fmt"
	"sort"
	"strings"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/ir"
	"dca/internal/purity"
	"dca/internal/scalar"
)

// Policy tunes which benign-dependence exemptions the analysis applies;
// the defaults model Dependence Profiling [8].
type Policy struct {
	// InductionScalars accepts i = i ± inv loop-carried scalars.
	InductionScalars bool
	// ReductionScalars accepts s = s op expr loop-carried scalars.
	ReductionScalars bool
	// MinMaxScalars accepts conditional if (x < m) m = x reductions.
	MinMaxScalars bool
	// MemReductions accepts op= memory reduction groups (incl. histograms).
	MemReductions bool
	// Privatization accepts carried WAR/WAW on addresses that pass the
	// dynamic write-first test.
	Privatization bool
	// ImpureCalls accepts loops calling functions with side effects,
	// relying purely on the dynamic trace to disambiguate them (DiscoPoP's
	// computational-unit construction keeps such dependences instead).
	ImpureCalls bool
}

// DefaultPolicy models the paper's Dependence Profiling baseline.
func DefaultPolicy() Policy {
	return Policy{
		InductionScalars: true,
		ReductionScalars: true,
		MinMaxScalars:    true,
		MemReductions:    true,
		Privatization:    true,
		ImpureCalls:      true,
	}
}

// Verdict is the per-loop outcome.
type Verdict struct {
	Key      LoopKey
	Loop     *cfg.Loop
	Parallel bool
	Executed bool
	Reasons  []string
}

// Report holds all verdicts for one program.
type Report struct {
	Prog     *ir.Program
	Profile  *Profile
	Verdicts map[LoopKey]*Verdict
	// Truncated mirrors Profile.Truncated: the trace hit its step budget
	// and verdicts cover only the executed prefix.
	Truncated bool
}

// Parallelizable counts loops reported parallel.
func (r *Report) Parallelizable() int {
	n := 0
	for _, v := range r.Verdicts {
		if v.Parallel {
			n++
		}
	}
	return n
}

// Verdict returns the verdict for fn's index-th loop, or nil.
func (r *Report) Verdict(fn string, index int) *Verdict {
	return r.Verdicts[LoopKey{fn, index}]
}

func (r *Report) String() string {
	keys := make([]LoopKey, 0, len(r.Verdicts))
	for k := range r.Verdicts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fn != keys[j].Fn {
			return keys[i].Fn < keys[j].Fn
		}
		return keys[i].Index < keys[j].Index
	})
	var b strings.Builder
	for _, k := range keys {
		v := r.Verdicts[k]
		status := "parallel"
		if !v.Parallel {
			status = "serial"
		}
		fmt.Fprintf(&b, "%s/L%d: %s", k.Fn, k.Index, status)
		if len(v.Reasons) > 0 {
			fmt.Fprintf(&b, " (%s)", strings.Join(v.Reasons, "; "))
		}
		b.WriteByte('\n')
	}
	if r.Truncated {
		b.WriteString("(trace truncated: step budget exhausted before the program finished)\n")
	}
	return b.String()
}

// Analyze traces the program and classifies every loop.
func Analyze(prog *ir.Program, pol Policy, maxSteps int64) (*Report, error) {
	prof, err := Trace(prog, maxSteps)
	if err != nil {
		return nil, err
	}
	return AnalyzeProfile(prog, prof, pol), nil
}

// AnalyzeProfile classifies every loop against an existing profile. The
// classification only reads the profile, so one traced execution can be
// shared between several profiler configurations (depprof policies,
// discopop) instead of re-tracing the program per baseline.
func AnalyzeProfile(prog *ir.Program, prof *Profile, pol Policy) *Report {
	rep := &Report{Prog: prog, Profile: prof, Verdicts: map[LoopKey]*Verdict{}, Truncated: prof.Truncated}
	pur := purity.Analyze(prog)
	for _, fn := range prog.Funcs {
		env := affine.EnvOf(prog, fn)
		for _, loop := range env.Loops {
			key := LoopKey{fn.Name, loop.Index}
			v := &Verdict{Key: key, Loop: loop}
			rep.Verdicts[key] = v
			lp := prof.Loops[key]
			v.Executed = lp != nil && lp.BodyExecuted
			if !v.Executed {
				v.Reasons = append(v.Reasons, "not exercised by workload")
				continue
			}
			if pur.LoopDoesIO(loop.Blocks) {
				v.Reasons = append(v.Reasons, "loop performs I/O")
				continue
			}
			if !pol.ImpureCalls {
				if callee := impureCallee(prog, pur, loop); callee != "" {
					v.Reasons = append(v.Reasons, fmt.Sprintf("call to %q crosses computational units", callee))
					continue
				}
			}
			scalarReasons := classifyScalars(env.Info[loop].Carried, pol)
			v.Reasons = append(v.Reasons, scalarReasons...)
			v.Reasons = append(v.Reasons, memoryReasons(lp, pol)...)
			v.Parallel = len(v.Reasons) == 0
		}
	}
	return rep
}

// impureCallee returns the name of the first side-effecting function the
// loop calls, in block order, or "".
func impureCallee(prog *ir.Program, pur *purity.Info, loop *cfg.Loop) string {
	for _, b := range loop.Fn.Blocks {
		if !loop.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && !c.Builtin && !pur.Pure(c.Callee) {
				return c.Callee
			}
		}
	}
	return ""
}

func memoryReasons(lp *LoopProfile, pol Policy) []string {
	var out []string
	if lp.ReductionAddrs && !pol.MemReductions {
		out = append(out, "carried memory reduction not recognized")
	}
	if lp.FatalRAW {
		out = append(out, fmt.Sprintf("loop-carried true dependence on %d address(es)", lp.addrFatalRAW))
	}
	if lp.NeedPriv {
		if !pol.Privatization {
			out = append(out, "carried output/anti dependences and privatization disabled")
		} else if lp.addrPrivFail > 0 {
			out = append(out, fmt.Sprintf("%d address(es) fail the write-first privatization test", lp.addrPrivFail))
		}
	}
	return out
}

// classifyScalars reports the loop-carried scalar dependences (the loop's
// affine.LoopInfo.Carried) that are not benign under the policy.
func classifyScalars(carried []scalar.Carried, pol Policy) []string {
	var reasons []string
	for _, c := range carried {
		ok := false
		switch c.Class {
		case scalar.Induction:
			ok = pol.InductionScalars
		case scalar.Reduction:
			ok = pol.ReductionScalars
		case scalar.MinMax:
			ok = pol.MinMaxScalars
		}
		if !ok {
			reasons = append(reasons, fmt.Sprintf("loop-carried scalar dependence on %q", c.Local.Name))
		}
	}
	return reasons
}
