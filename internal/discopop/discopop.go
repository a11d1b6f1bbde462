// Package discopop reimplements the decision procedure of DiscoPoP (Li et
// al. [9]): profile-driven detection of parallelizable code regions of
// varying granularity. Like Dependence Profiling it classifies loops from a
// dynamic dependence trace, but
//
//   - it recognizes only the plain arithmetic reduction patterns its CU
//     (computational-unit) matcher covers — conditional min/max updates are
//     not among them; and
//   - it additionally reports non-loop regions: adjacent computational
//     units with disjoint memory footprints form a task-parallel section,
//     so its region count can exceed the loop count of a benchmark (as in
//     the paper's Table I, where DiscoPoP reports 20 regions for the 16
//     loops of IS).
package discopop

import (
	"fmt"
	"strings"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/dataflow"
	"dca/internal/depprof"
	"dca/internal/ir"
	"dca/internal/pointer"
)

// Report holds DiscoPoP's findings for one program.
type Report struct {
	Prog *ir.Program
	// LoopVerdicts reuses the dependence-profiling verdict structure.
	Loops *depprof.Report
	// TaskSections lists the detected non-loop parallel regions.
	TaskSections []TaskSection
}

// TaskSection is a pair of adjacent, memory-disjoint regions inside one
// function that can run as parallel tasks.
type TaskSection struct {
	Fn     string
	First  string // description of the first unit (loop id)
	Second string
}

// ParallelRegions returns DiscoPoP's headline count: parallelizable loops
// plus task-parallel sections.
func (r *Report) ParallelRegions() int {
	return r.Loops.Parallelizable() + len(r.TaskSections)
}

// ParallelLoops counts only the loop-shaped regions.
func (r *Report) ParallelLoops() int { return r.Loops.Parallelizable() }

// Verdict exposes the per-loop verdict.
func (r *Report) Verdict(fn string, index int) *depprof.Verdict {
	return r.Loops.Verdict(fn, index)
}

func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Loops.String())
	for _, ts := range r.TaskSections {
		fmt.Fprintf(&b, "%s: task section (%s || %s)\n", ts.Fn, ts.First, ts.Second)
	}
	return b.String()
}

// Policy is DiscoPoP's loop policy: dependence profiling without the
// conditional min/max reduction matcher, and with side-effecting calls
// kept as inter-CU dependences.
func Policy() depprof.Policy {
	p := depprof.DefaultPolicy()
	p.MinMaxScalars = false
	p.ImpureCalls = false
	return p
}

// Analyze traces the program and produces DiscoPoP's region report.
func Analyze(prog *ir.Program, maxSteps int64) (*Report, error) {
	prof, err := depprof.Trace(prog, maxSteps)
	if err != nil {
		return nil, err
	}
	return AnalyzeProfile(prog, prof), nil
}

// AnalyzeProfile produces the region report from an existing dependence
// profile, so one traced execution can serve both this baseline and
// dependence profiling: the trace is policy-independent, only the
// classification differs.
func AnalyzeProfile(prog *ir.Program, prof *depprof.Profile) *Report {
	loops := depprof.AnalyzeProfile(prog, prof, Policy())
	rep := &Report{Prog: prog, Loops: loops}
	pa := pointer.Of(prog)
	for _, fn := range prog.Funcs {
		rep.TaskSections = append(rep.TaskSections, taskSections(affine.EnvOf(prog, fn), pa, loops)...)
	}
	return rep
}

// unit is a candidate computational unit: a top-level loop of a function
// together with its memory footprint and scalar defs/uses.
type unit struct {
	loop   *cfg.Loop
	reads  pointer.RegionSet
	writes pointer.RegionSet
	defs   dataflow.LocalSet
	uses   dataflow.LocalSet
	order  int // position of the header block in RPO
}

// taskSections finds adjacent top-level loops with disjoint footprints.
// Both units must have been executed (DiscoPoP is profile-driven).
func taskSections(env *affine.Env, pa *pointer.Analysis, loops *depprof.Report) []TaskSection {
	fn, g := env.Fn, env.G
	var units []*unit
	for _, l := range env.Loops {
		if l.Depth != 1 {
			continue
		}
		v := loops.Verdict(fn.Name, l.Index)
		if v == nil || !v.Executed {
			continue
		}
		u := &unit{
			loop:   l,
			reads:  pointer.RegionSet{},
			writes: pointer.RegionSet{},
			defs:   dataflow.LocalSet{},
			uses:   dataflow.LocalSet{},
		}
		for i, b := range g.RPO {
			if b == l.Header {
				u.order = i
			}
			if !l.Blocks[b] {
				continue
			}
			for _, in := range b.Instrs {
				switch instr := in.(type) {
				case *ir.Load:
					for _, r := range pa.AccessRegions(instr) {
						u.reads.Add(r)
					}
				case *ir.Store:
					for _, r := range pa.AccessRegions(instr) {
						u.writes.Add(r)
					}
				case *ir.Call:
					if mr := pa.CallEffects(instr); mr != nil {
						u.reads.AddAll(mr.Reads)
						u.writes.AddAll(mr.Writes)
					}
				}
				if d := in.Def(); d != nil {
					u.defs[d] = true
				}
				for _, o := range in.Uses() {
					if o.Local != nil {
						u.uses[o.Local] = true
					}
				}
			}
		}
		units = append(units, u)
	}
	var out []TaskSection
	for i := 0; i+1 < len(units); i++ {
		a, b := units[i], units[i+1]
		if independent(a, b) {
			out = append(out, TaskSection{
				Fn:     fn.Name,
				First:  fmt.Sprintf("L%d", a.loop.Index),
				Second: fmt.Sprintf("L%d", b.loop.Index),
			})
		}
	}
	return out
}

func independent(a, b *unit) bool {
	if a.writes.Intersects(b.reads) || a.writes.Intersects(b.writes) || b.writes.Intersects(a.reads) {
		return false
	}
	// No scalar flow between the units (ignoring each unit's own loop
	// locals, which are distinct by construction).
	for l := range a.defs {
		if b.uses[l] {
			return false
		}
	}
	for l := range b.defs {
		if a.uses[l] {
			return false
		}
	}
	return true
}
