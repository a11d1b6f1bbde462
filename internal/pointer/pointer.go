// Package pointer implements a flow-insensitive, field-sensitive,
// interprocedural Andersen-style points-to analysis over the IR, plus
// mod/ref summaries per function. Iterator recognition uses its memory
// regions — (allocation site, field) pairs — to close the iterator slice
// over memory dependences, which is what lets DCA separate worklist
// iterators (pop affecting the loop condition through the heap) from
// payload code.
package pointer

import (
	"fmt"
	"sort"

	"dca/internal/ir"
)

// Site is a heap allocation site (one per Alloc instruction).
type Site struct {
	ID    int
	Alloc *ir.Alloc
	Fn    *ir.Func
}

func (s *Site) String() string {
	if s.Alloc.Struct != nil {
		return fmt.Sprintf("site%d(%s in %s)", s.ID, s.Alloc.Struct.Name, s.Fn.Name)
	}
	return fmt.Sprintf("site%d([]%s in %s)", s.ID, s.Alloc.Elem, s.Fn.Name)
}

// ArrayField is the pseudo-field index used for array element accesses
// (elements are collapsed into one region per site).
const ArrayField = -1

// Region is an abstract memory location: one field of one allocation site.
type Region struct {
	Site  *Site
	Field int
}

func (r Region) String() string {
	if r.Field == ArrayField {
		return fmt.Sprintf("%s[*]", r.Site)
	}
	return fmt.Sprintf("%s.f%d", r.Site, r.Field)
}

// RegionSet is a set of regions.
type RegionSet map[Region]bool

// Add inserts r, reporting whether it was new.
func (s RegionSet) Add(r Region) bool {
	if s[r] {
		return false
	}
	s[r] = true
	return true
}

// AddAll inserts all of t, reporting growth.
func (s RegionSet) AddAll(t RegionSet) bool {
	grew := false
	for r := range t {
		if s.Add(r) {
			grew = true
		}
	}
	return grew
}

// Intersects reports whether the two sets share a region.
func (s RegionSet) Intersects(t RegionSet) bool {
	if len(t) < len(s) {
		s, t = t, s
	}
	for r := range s {
		if t[r] {
			return true
		}
	}
	return false
}

// Sorted returns a deterministic ordering for reports.
func (s RegionSet) Sorted() []Region {
	out := make([]Region, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site.ID != out[j].Site.ID {
			return out[i].Site.ID < out[j].Site.ID
		}
		return out[i].Field < out[j].Field
	})
	return out
}

type siteSet map[*Site]bool

func (s siteSet) addAll(t siteSet) bool {
	grew := false
	for x := range t {
		if !s[x] {
			s[x] = true
			grew = true
		}
	}
	return grew
}

// ModRef summarizes the memory effects of one function, including its
// transitive callees.
type ModRef struct {
	Reads  RegionSet
	Writes RegionSet
}

// Analysis holds the points-to and mod/ref results for a program. Once
// solved it is read-only: every query only reads it, so one analysis
// serves concurrent readers (see Of).
type Analysis struct {
	Prog  *ir.Program
	Sites []*Site
	// pts maps each ref-typed local to the sites it may point to.
	pts map[*ir.Local]siteSet
	// heap maps each region to the sites stored in it.
	heap map[Region]siteSet
	// summaries holds each function's transitive mod/ref summary.
	summaries        map[*ir.Func]*ModRef
	siteOf           map[*ir.Alloc]*Site
	funcs            map[string]*ir.Func
	fieldInsensitive bool
}

// callee resolves a call target by name. Program.Func is a linear scan and
// the solvers resolve the same names on every fixed-point pass, so the table
// is built once up front.
func (a *Analysis) callee(name string) *ir.Func { return a.funcs[name] }

// memoKey keys the points-to solution in ir.Program.Memo.
type memoKey struct{}

// Of returns the program's field-sensitive analysis, solved once per
// program and shared through ir.Program.Memo by every consumer. Callers
// must not mutate the program afterwards.
func Of(prog *ir.Program) *Analysis {
	return prog.Memo(memoKey{}, func() any { return Analyze(prog) }).(*Analysis)
}

// Analyze runs the field-sensitive analysis over the whole program. Most
// callers want the memoized Of instead.
func Analyze(prog *ir.Program) *Analysis { return analyze(prog, false) }

// AnalyzeFieldInsensitive collapses every field of a site into one region
// (object granularity). It exists for the ablation study: at object
// granularity a worklist pop and the payload's field traffic share regions,
// so iterator/payload separation degrades — quantifying why the
// field-sensitive regions are load-bearing for DCA.
func AnalyzeFieldInsensitive(prog *ir.Program) *Analysis { return analyze(prog, true) }

func analyze(prog *ir.Program, fieldInsensitive bool) *Analysis {
	a := &Analysis{
		Prog:             prog,
		fieldInsensitive: fieldInsensitive,
		pts:              map[*ir.Local]siteSet{},
		heap:             map[Region]siteSet{},
		summaries:        map[*ir.Func]*ModRef{},
		siteOf:           map[*ir.Alloc]*Site{},
		funcs:            make(map[string]*ir.Func, len(prog.Funcs)),
	}
	for _, fn := range prog.Funcs {
		a.funcs[fn.Name] = fn
	}
	// Collect allocation sites.
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if al, ok := in.(*ir.Alloc); ok {
					s := &Site{ID: len(a.Sites), Alloc: al, Fn: fn}
					a.Sites = append(a.Sites, s)
					a.siteOf[al] = s
				}
			}
		}
	}
	a.solvePointsTo()
	a.solveModRef()
	return a
}

// sitesOf returns the sites l may point to (nil when none). Unlike the
// solver's ptsOf it never inserts: a solved analysis is shared by
// concurrent readers, so queries must not write it.
func (a *Analysis) sitesOf(l *ir.Local) siteSet { return a.pts[l] }

// ptsOf returns l's points-to set for the solver to grow, creating it on
// first use.
func (a *Analysis) ptsOf(l *ir.Local) siteSet {
	s, ok := a.pts[l]
	if !ok {
		s = siteSet{}
		a.pts[l] = s
	}
	return s
}

func (a *Analysis) heapOf(r Region) siteSet {
	s, ok := a.heap[r]
	if !ok {
		s = siteSet{}
		a.heap[r] = s
	}
	return s
}

func (a *Analysis) fieldKey(in ir.Instr) int {
	if a.fieldInsensitive {
		return ArrayField
	}
	return fieldKey(in)
}

func fieldKey(in ir.Instr) int {
	switch i := in.(type) {
	case *ir.Load:
		if i.FieldName == "" {
			return ArrayField
		}
		return int(i.Index.Const.I)
	case *ir.Store:
		if i.FieldName == "" {
			return ArrayField
		}
		return int(i.Index.Const.I)
	}
	return ArrayField
}

func (a *Analysis) solvePointsTo() {
	// Gather per-function return locals/operands.
	returns := map[*ir.Func][]ir.Operand{}
	for _, fn := range a.Prog.Funcs {
		for _, b := range fn.Blocks {
			if r, ok := b.Term.(*ir.Ret); ok && r.Val != nil {
				returns[fn] = append(returns[fn], *r.Val)
			}
		}
	}
	opSites := func(o ir.Operand) siteSet {
		if o.Local != nil {
			return a.ptsOf(o.Local)
		}
		return nil // constants (incl. nil) point nowhere
	}
	changed := true
	for changed {
		changed = false
		for _, fn := range a.Prog.Funcs {
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					switch i := in.(type) {
					case *ir.Alloc:
						d := a.ptsOf(i.Dst)
						if !d[a.siteOf[i]] {
							d[a.siteOf[i]] = true
							changed = true
						}
					case *ir.Mov:
						if i.Dst.Type.IsRef() {
							if a.ptsOf(i.Dst).addAll(opSites(i.Src)) {
								changed = true
							}
						}
					case *ir.Load:
						if i.Dst.Type.IsRef() {
							f := a.fieldKey(i)
							d := a.ptsOf(i.Dst)
							for s := range opSites(i.Base) {
								if d.addAll(a.heapOf(Region{Site: s, Field: f})) {
									changed = true
								}
							}
						}
					case *ir.Store:
						src := opSites(i.Src)
						if len(src) == 0 {
							continue
						}
						f := a.fieldKey(i)
						for s := range opSites(i.Base) {
							if a.heapOf(Region{Site: s, Field: f}).addAll(src) {
								changed = true
							}
						}
					case *ir.Call:
						if i.Builtin {
							continue // builtins neither store nor return refs
						}
						callee := a.callee(i.Callee)
						if callee == nil {
							continue
						}
						for k, arg := range i.Args {
							if k < len(callee.Params) && callee.Params[k].Type.IsRef() {
								if a.ptsOf(callee.Params[k]).addAll(opSites(arg)) {
									changed = true
								}
							}
						}
						if i.Dst != nil && i.Dst.Type.IsRef() {
							d := a.ptsOf(i.Dst)
							for _, r := range returns[callee] {
								if d.addAll(opSites(r)) {
									changed = true
								}
							}
						}
					}
				}
			}
		}
	}
}

func (a *Analysis) solveModRef() {
	for _, fn := range a.Prog.Funcs {
		a.summaries[fn] = &ModRef{Reads: RegionSet{}, Writes: RegionSet{}}
	}
	changed := true
	for changed {
		changed = false
		for _, fn := range a.Prog.Funcs {
			mr := a.summaries[fn]
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					switch i := in.(type) {
					case *ir.Load:
						for _, r := range a.AccessRegions(i) {
							if mr.Reads.Add(r) {
								changed = true
							}
						}
					case *ir.Store:
						for _, r := range a.AccessRegions(i) {
							if mr.Writes.Add(r) {
								changed = true
							}
						}
					case *ir.Call:
						if i.Builtin {
							continue
						}
						callee := a.callee(i.Callee)
						if callee == nil {
							continue
						}
						cs := a.summaries[callee]
						if mr.Reads.AddAll(cs.Reads) {
							changed = true
						}
						if mr.Writes.AddAll(cs.Writes) {
							changed = true
						}
					}
				}
			}
		}
	}
}

// AccessRegions returns the regions a Load or Store may touch.
func (a *Analysis) AccessRegions(in ir.Instr) []Region {
	var base ir.Operand
	switch i := in.(type) {
	case *ir.Load:
		base = i.Base
	case *ir.Store:
		base = i.Base
	default:
		return nil
	}
	if base.Local == nil {
		return nil
	}
	f := a.fieldKey(in)
	var out []Region
	for s := range a.sitesOf(base.Local) {
		out = append(out, Region{Site: s, Field: f})
	}
	return out
}

// PointsTo returns the sites a local may reference.
func (a *Analysis) PointsTo(l *ir.Local) []*Site {
	var out []*Site
	for s := range a.sitesOf(l) {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Summary returns the transitive mod/ref summary of fn (nil for a function
// outside the program).
func (a *Analysis) Summary(fn *ir.Func) *ModRef { return a.summaries[fn] }

// CallEffects returns the transitive mod/ref summary of a call instruction
// (nil for builtins and unknown callees, which are effect-free by
// construction in MiniC).
func (a *Analysis) CallEffects(c *ir.Call) *ModRef {
	if c.Builtin {
		return nil
	}
	callee := a.callee(c.Callee)
	if callee == nil {
		return nil
	}
	return a.Summary(callee)
}
