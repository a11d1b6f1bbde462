// Package affine implements the affine-loop machinery the static baselines
// (Polly, ICC, Idioms) are built on: induction-variable discovery, linear
// expression extraction for bounds and array subscripts, and classic
// data-dependence tests (ZIV, strong SIV with inner-IV ranges, GCD).
package affine

import (
	"fmt"
	"math"

	"dca/internal/cfg"
	"dca/internal/ir"
	"dca/internal/scalar"
)

// LinExpr is a linear expression c0 + Σ ci·ti where each term ti is either
// a loop induction variable or a loop-invariant symbol.
type LinExpr struct {
	Const  int64
	Coeffs map[*ir.Local]int64
}

// NewLin returns the constant expression c.
func NewLin(c int64) *LinExpr { return &LinExpr{Const: c, Coeffs: map[*ir.Local]int64{}} }

func (e *LinExpr) clone() *LinExpr {
	c := NewLin(e.Const)
	for t, v := range e.Coeffs {
		c.Coeffs[t] = v
	}
	return c
}

func (e *LinExpr) add(o *LinExpr, sign int64) *LinExpr {
	r := e.clone()
	r.Const += sign * o.Const
	for t, v := range o.Coeffs {
		r.Coeffs[t] += sign * v
		if r.Coeffs[t] == 0 {
			delete(r.Coeffs, t)
		}
	}
	return r
}

func (e *LinExpr) scale(k int64) *LinExpr {
	r := NewLin(e.Const * k)
	if k == 0 {
		return r
	}
	for t, v := range e.Coeffs {
		r.Coeffs[t] = v * k
	}
	return r
}

// IsConst reports whether the expression has no symbolic terms.
func (e *LinExpr) IsConst() bool { return len(e.Coeffs) == 0 }

// Coeff returns the coefficient of term t.
func (e *LinExpr) Coeff(t *ir.Local) int64 { return e.Coeffs[t] }

func (e *LinExpr) String() string {
	s := fmt.Sprintf("%d", e.Const)
	for t, v := range e.Coeffs {
		s += fmt.Sprintf(" + %d*%s", v, t.Name)
	}
	return s
}

// LoopInfo is the affine summary of one loop.
type LoopInfo struct {
	Loop *cfg.Loop
	// IV is the primary induction variable (constant step, used in the
	// loop's exit condition); Step is its stride.
	IV   *ir.Local
	Step int64
	// Trip is the static trip count when bounds are constant, else -1.
	Trip int64
	OK   bool
	Why  string
	// Carried is the loop's scalar classification (scalar.Classify),
	// computed once per loop when the environment is built. The static
	// baselines, the dependence profilers, the prover and the
	// instrumenter all read it; the slice is shared and read-only.
	Carried []scalar.Carried
}

// Env extends the scalar env with per-loop affine summaries for one
// function.
type Env struct {
	*scalar.Env
	Fn    *ir.Func
	Loops []*cfg.Loop
	Info  map[*cfg.Loop]*LoopInfo
	// IVSteps maps every discovered induction variable (of any loop in the
	// function) to its constant step (0 = symbolic).
	IVSteps map[*ir.Local]int64
	ivLoop  map[*ir.Local]*cfg.Loop
	defs    map[*ir.Local][]ir.Instr // function-wide single-def map helper
}

// envKey keys one function's environment in ir.Program.Memo.
type envKey struct{ fn *ir.Func }

// EnvOf returns fn's environment, built once per function of prog and
// shared through prog.Memo by every consumer (the static baselines, the
// dependence profilers' classification, the prover and the instrumenter).
// The environment is read-only once built. fn must be a function of prog
// that is no longer rewritten: the instrumenter, which rewrites a clone,
// maps what it needs from the original's environment onto the clone.
func EnvOf(prog *ir.Program, fn *ir.Func) *Env {
	return prog.Memo(envKey{fn}, func() any { return NewEnv(fn) }).(*Env)
}

// NewEnv analyzes all loops of fn. Most callers want the memoized EnvOf.
func NewEnv(fn *ir.Func) *Env {
	senv := scalar.NewEnv(fn)
	env := &Env{
		Env:     senv,
		Fn:      fn,
		Loops:   senv.G.FindLoops(),
		Info:    map[*cfg.Loop]*LoopInfo{},
		IVSteps: map[*ir.Local]int64{},
		ivLoop:  map[*ir.Local]*cfg.Loop{},
		defs:    map[*ir.Local][]ir.Instr{},
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d != nil {
				env.defs[d] = append(env.defs[d], in)
			}
		}
	}
	for _, l := range env.Loops {
		env.Info[l] = env.analyzeLoop(l)
	}
	return env
}

// analyzeLoop finds the primary IV and trip count.
func (env *Env) analyzeLoop(loop *cfg.Loop) *LoopInfo {
	info := &LoopInfo{Loop: loop, Trip: -1, Carried: scalar.Classify(env.Env, loop)}
	var ivs []scalar.Carried
	for _, c := range info.Carried {
		if c.Class == scalar.Induction {
			ivs = append(ivs, c)
			env.IVSteps[c.Local] = c.Step
			env.ivLoop[c.Local] = loop
		}
	}
	// The primary IV appears in the header condition.
	hdrIf, ok := loop.Header.Term.(*ir.If)
	if !ok {
		info.Why = "loop header has no conditional exit"
		return info
	}
	condLocal := hdrIf.Cond.Local
	if condLocal == nil {
		info.Why = "constant loop condition"
		return info
	}
	conds := env.defsIn(condLocal, loop)
	if len(conds) != 1 {
		info.Why = "complex loop condition"
		return info
	}
	cmp, ok := conds[0].(*ir.BinOp)
	if !ok || !cmp.Op.IsComparison() {
		info.Why = "non-comparison loop condition"
		return info
	}
	for _, c := range ivs {
		if c.Step == 0 {
			continue
		}
		if (cmp.X.Local == c.Local || cmp.Y.Local == c.Local) && c.Step != 0 {
			info.IV = c.Local
			info.Step = c.Step
			break
		}
	}
	if info.IV == nil {
		info.Why = "no constant-step induction variable in the loop condition"
		return info
	}
	// Bound side must be loop-invariant and affine.
	var boundOp ir.Operand
	if cmp.X.Local == info.IV {
		boundOp = cmp.Y
	} else {
		boundOp = cmp.X
	}
	bound, err := env.Linearize(boundOp, loop)
	if err != nil {
		info.Why = "non-affine loop bound: " + err.Error()
		return info
	}
	if bound.Coeff(info.IV) != 0 {
		info.Why = "loop bound depends on the induction variable"
		return info
	}
	// Static trip count for constant bounds and a constant IV start.
	if bound.IsConst() {
		if start, ok := env.constStart(info.IV, loop); ok {
			info.Trip = tripCount(start, bound.Const, info.Step, cmp.Op, cmp.X.Local == info.IV)
		}
	}
	info.OK = true
	return info
}

// defsIn returns in-loop defining instructions of l.
func (env *Env) defsIn(l *ir.Local, loop *cfg.Loop) []ir.Instr {
	var out []ir.Instr
	for _, d := range env.defs[l] {
		if loop.Blocks[env.blockOf(d)] {
			out = append(out, d)
		}
	}
	return out
}

func (env *Env) blockOf(in ir.Instr) *ir.Block {
	for _, b := range env.Fn.Blocks {
		for _, i := range b.Instrs {
			if i == in {
				return b
			}
		}
	}
	return nil
}

// constStart finds the constant initial value of an IV: its unique
// definition outside the loop must be a constant move.
func (env *Env) constStart(iv *ir.Local, loop *cfg.Loop) (int64, bool) {
	var outside []ir.Instr
	for _, d := range env.defs[iv] {
		if !loop.Blocks[env.blockOf(d)] {
			outside = append(outside, d)
		}
	}
	if len(outside) != 1 {
		return 0, false
	}
	mv, ok := outside[0].(*ir.Mov)
	if !ok || mv.Src.Local != nil || mv.Src.Const.Kind != ir.KindInt {
		return 0, false
	}
	return mv.Src.Const.I, true
}

func tripCount(start, bound, step int64, op ir.BinKind, ivOnLeft bool) int64 {
	if !ivOnLeft {
		// bound REL iv  ==  iv REL' bound with the comparison flipped.
		switch op {
		case ir.Lt:
			op = ir.Gt
		case ir.Le:
			op = ir.Ge
		case ir.Gt:
			op = ir.Lt
		case ir.Ge:
			op = ir.Le
		}
	}
	switch {
	case step > 0 && op == ir.Lt:
		if bound <= start {
			return 0
		}
		return (bound - start + step - 1) / step
	case step > 0 && op == ir.Le:
		if bound < start {
			return 0
		}
		return (bound-start)/step + 1
	case step < 0 && op == ir.Gt:
		if bound >= start {
			return 0
		}
		return (start - bound - step - 1) / (-step)
	case step < 0 && op == ir.Ge:
		if bound > start {
			return 0
		}
		return (start-bound)/(-step) + 1
	case op == ir.Ne:
		if step != 0 && (bound-start)%step == 0 && (bound-start)/step > 0 {
			return (bound - start) / step
		}
	}
	return -1
}

// Linearize extracts the linear form of an operand with respect to a loop:
// terms are induction variables (of any loop) or locals invariant in the
// given loop. Loads, calls and multi-def temps are non-affine.
func (env *Env) Linearize(o ir.Operand, loop *cfg.Loop) (*LinExpr, error) {
	return env.linearize(o, loop, 0)
}

func (env *Env) linearize(o ir.Operand, loop *cfg.Loop, depth int) (*LinExpr, error) {
	if depth > 24 {
		return nil, fmt.Errorf("expression too deep")
	}
	if o.Local == nil {
		if o.Const.Kind != ir.KindInt {
			return nil, fmt.Errorf("non-integer constant")
		}
		return NewLin(o.Const.I), nil
	}
	l := o.Local
	if _, isIV := env.IVSteps[l]; isIV {
		e := NewLin(0)
		e.Coeffs[l] = 1
		return e, nil
	}
	ds := env.defsIn(l, loop)
	if len(ds) == 0 {
		// Loop-invariant symbol.
		e := NewLin(0)
		e.Coeffs[l] = 1
		return e, nil
	}
	if len(ds) != 1 {
		return nil, fmt.Errorf("%q has multiple in-loop definitions", l.Name)
	}
	switch in := ds[0].(type) {
	case *ir.Mov:
		return env.linearize(in.Src, loop, depth+1)
	case *ir.BinOp:
		switch in.Op {
		case ir.Add, ir.Sub:
			x, err := env.linearize(in.X, loop, depth+1)
			if err != nil {
				return nil, err
			}
			y, err := env.linearize(in.Y, loop, depth+1)
			if err != nil {
				return nil, err
			}
			sign := int64(1)
			if in.Op == ir.Sub {
				sign = -1
			}
			return x.add(y, sign), nil
		case ir.Mul:
			x, err := env.linearize(in.X, loop, depth+1)
			if err != nil {
				return nil, err
			}
			y, err := env.linearize(in.Y, loop, depth+1)
			if err != nil {
				return nil, err
			}
			switch {
			case x.IsConst():
				return y.scale(x.Const), nil
			case y.IsConst():
				return x.scale(y.Const), nil
			}
			return nil, fmt.Errorf("non-linear product")
		case ir.Shl:
			x, err := env.linearize(in.X, loop, depth+1)
			if err != nil {
				return nil, err
			}
			y, err := env.linearize(in.Y, loop, depth+1)
			if err != nil {
				return nil, err
			}
			if y.IsConst() && y.Const >= 0 && y.Const < 62 {
				return x.scale(1 << uint(y.Const)), nil
			}
			return nil, fmt.Errorf("non-constant shift")
		}
		return nil, fmt.Errorf("non-affine operator %s", in.Op)
	}
	return nil, fmt.Errorf("%q defined by a non-affine instruction", l.Name)
}

// Access is one memory access with its affine summary.
type Access struct {
	Instr   ir.Instr
	IsWrite bool
	Base    *ir.Local
	Field   string // non-empty for struct field accesses
	Sub     *LinExpr
	SubErr  error // non-nil when the subscript is not affine
}

// Accesses collects every Load/Store in the loop with affine subscripts
// where extractable.
func (env *Env) Accesses(loop *cfg.Loop) []Access {
	var out []Access
	for _, b := range env.G.RPO {
		if !loop.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch i := in.(type) {
			case *ir.Load:
				a := Access{Instr: in, Base: i.Base.Local, Field: i.FieldName}
				a.Sub, a.SubErr = env.Linearize(i.Index, loop)
				out = append(out, a)
			case *ir.Store:
				a := Access{Instr: in, IsWrite: true, Base: i.Base.Local, Field: i.FieldName}
				a.Sub, a.SubErr = env.Linearize(i.Index, loop)
				out = append(out, a)
			}
		}
	}
	return out
}

// Carried decides whether the pair (a, b) — at least one a write — may form
// a loop-carried dependence of the given loop. It assumes both accesses
// target the same object (alias disambiguation happens in the caller).
func (env *Env) Carried(a, b Access, loop *cfg.Loop) bool {
	if a.SubErr != nil || b.SubErr != nil {
		return true // non-affine: assume dependence
	}
	info := env.Info[loop]
	if info == nil || !info.OK {
		return true
	}
	iv := info.IV
	// |MinInt64| is not representable; every derived quantity below (gcd,
	// division bounds) would silently use a wrong magnitude. Bail out to
	// "assume dependence" rather than reason with a saturated coefficient.
	if a.Sub.Coeff(iv) == math.MinInt64 || b.Sub.Coeff(iv) == math.MinInt64 {
		return true
	}
	// delta = b.Sub - a.Sub.
	delta := b.Sub.add(a.Sub, -1)
	ai := a.Sub.Coeff(iv)
	bi := b.Sub.Coeff(iv)
	// Residual terms beyond the tested IV. Inner induction variables take
	// independent values in the two iterations under test, so their range
	// comes from BOTH subscripts' coefficients (a self-pair cancels in
	// delta but still spans the inner iteration space); loop-invariant
	// symbols hold the same value in both iterations, so equal coefficients
	// cancel and unequal ones are unknown.
	rng := int64(0)
	terms := map[*ir.Local]bool{}
	for t := range a.Sub.Coeffs {
		terms[t] = true
	}
	for t := range b.Sub.Coeffs {
		terms[t] = true
	}
	for t := range terms {
		if t == iv {
			continue
		}
		if innerLoop, isIV := env.ivLoop[t]; isIV && innerLoop != loop && loop.Blocks[innerLoop.Header] {
			inner := env.Info[innerLoop]
			if inner != nil && inner.OK && inner.Trip >= 0 {
				c := absInt(a.Sub.Coeff(t))
				if cb := absInt(b.Sub.Coeff(t)); cb > c {
					c = cb
				}
				// Residual extent c*|step|*(trip-1), saturating: a silently
				// wrapped product here can flip "dependence" into
				// "independent", so overflow bails to "assume dependence".
				r, ok := satMul(c, absInt(inner.Step))
				if ok {
					r, ok = satMul(r, inner.Trip-1)
				}
				if ok {
					rng, ok = satAdd(rng, r)
				}
				if !ok {
					return true
				}
				continue
			}
			return true // inner IV with unknown extent
		}
		if delta.Coeff(t) != 0 {
			return true // differing symbolic terms: unknown difference
		}
	}
	d := delta.Const
	// Both tests below reason about the interval [d-rng, d+rng]; if either
	// endpoint is not representable, assume dependence.
	lo, okLo := satAdd(d, -rng)
	hi, okHi := satAdd(d, rng)
	if !okLo || !okHi {
		return true
	}
	switch {
	case ai == bi:
		aa := ai
		if aa == 0 {
			// ZIV: both addresses are IV-independent; dependence iff they
			// can coincide at all (then every iteration conflicts).
			return absInt(d) <= rng
		}
		// Solutions need aa*k ∈ [lo, hi] for k ≠ 0.
		if aa < 0 {
			if lo == math.MinInt64 || hi == math.MinInt64 {
				return true
			}
			aa = -aa
			lo, hi = -hi, -lo
		}
		return hasCarriedK(ceilDiv(lo, aa), floorDiv(hi, aa), info.Trip)
	default:
		// GCD test on bi*i2 - ai*i1 = -d (+rng slack): if gcd(ai,bi) does
		// not divide any value in [lo, hi], no dependence.
		gg := gcd(absInt(ai), absInt(bi))
		if gg == 0 {
			return true
		}
		return hasMultipleInRange(lo, hi, gg)
	}
}

// hasMultipleInRange reports whether [lo, hi] contains a multiple of g,
// for g > 0: one exists iff floor(hi/g) >= ceil(lo/g). Closed form of the
// former O(hi-lo) scan, whose iteration count was proportional to the
// residual range — billions of probes for large inner trip counts.
func hasMultipleInRange(lo, hi, g int64) bool {
	return floorDiv(hi, g) >= ceilDiv(lo, g)
}

// hasCarriedK reports whether [klo, khi] contains a nonzero iteration
// distance k with |k| < trip; trip < 0 means the trip count is unknown and
// any nonzero k qualifies. Closed form of the former O(khi-klo) scan.
func hasCarriedK(klo, khi, trip int64) bool {
	if klo > khi {
		return false
	}
	if trip < 0 {
		return klo < 0 || khi > 0
	}
	if minInt(khi, trip-1) >= maxInt(klo, 1) {
		return true // positive k
	}
	if minInt(khi, -1) >= maxInt(klo, 1-trip) {
		return true // negative k
	}
	return false
}

// absInt returns |x|, saturating at MaxInt64: |MinInt64| is not
// representable, and the negation would silently return MinInt64 itself.
// Saturation is conservative everywhere absInt feeds a range or magnitude
// comparison (a larger residual range only adds dependences); the exact
// tests that need a true magnitude (the IV coefficients) reject MinInt64
// before calling it.
func absInt(x int64) int64 {
	if x == math.MinInt64 {
		return math.MaxInt64
	}
	if x < 0 {
		return -x
	}
	return x
}

// satAdd returns a+b, reporting false when the exact sum overflows int64.
func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// satMul returns a*b, reporting false when the exact product overflows
// int64.
func satMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		// MinInt64 * anything but 1 overflows; the division check below
		// would panic on MinInt64 / -1.
		if a == 1 {
			return b, true
		}
		if b == 1 {
			return a, true
		}
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func minInt(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ceilDiv computes ceil(a/b) for b > 0.
func ceilDiv(a, b int64) int64 {
	q, r := a/b, a%b
	if r != 0 && a > 0 {
		return q + 1
	}
	return q
}

// floorDiv computes floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q, r := a/b, a%b
	if r != 0 && a < 0 {
		return q - 1
	}
	return q
}

// MemReductionGroups finds (Load, BinOp, Store) triples implementing
// "location op= expr" within a single block — including indirect subscripts
// such as histograms h[b[i]] += e — and assigns each triple a group id.
// Both the dependence profilers (dynamically) and the Idioms detector
// (statically) treat carried dependences confined to one group as benign
// reductions.
func MemReductionGroups(fn *ir.Func) map[ir.Instr]int {
	groups := map[ir.Instr]int{}
	seq := 0
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			ld, ok := in.(*ir.Load)
			if !ok {
				continue
			}
			for j := i + 1; j < len(b.Instrs) && j <= i+4; j++ {
				bo, ok := b.Instrs[j].(*ir.BinOp)
				if !ok || !usesLocal(bo, ld.Dst) {
					continue
				}
				switch bo.Op {
				case ir.Add, ir.Mul, ir.BitAnd, ir.BitOr, ir.BitXor, ir.Sub:
				default:
					continue
				}
				for k := j + 1; k < len(b.Instrs) && k <= j+2; k++ {
					st, ok := b.Instrs[k].(*ir.Store)
					if !ok {
						continue
					}
					if st.Src.Local != bo.Dst {
						continue
					}
					if !sameOperand(st.Base, ld.Base) || !sameOperand(st.Index, ld.Index) {
						continue
					}
					seq++
					groups[ld] = seq
					groups[st] = seq
				}
			}
		}
	}
	return groups
}

func usesLocal(in ir.Instr, l *ir.Local) bool {
	for _, u := range in.Uses() {
		if u.Local == l {
			return true
		}
	}
	return false
}

func sameOperand(a, b ir.Operand) bool {
	if a.Local != nil || b.Local != nil {
		return a.Local == b.Local
	}
	return a.Const.Equal(b.Const)
}
