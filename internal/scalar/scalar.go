// Package scalar classifies loop-carried scalar dependences: for every
// local that is live into a loop header and redefined inside the loop, it
// decides whether the recurrence is a basic induction (i = i ± inv), an
// associative reduction (s = s op expr), a conditional min/max update, or a
// fatal carried dependence (such as the pointer chase ptr = ptr->next).
// Both the dynamic profilers and the static baselines share these matchers.
package scalar

import (
	"dca/internal/cfg"
	"dca/internal/dataflow"
	"dca/internal/ir"
)

// Class is the recurrence classification of one loop-carried scalar.
type Class int

// Classes, from most to least benign.
const (
	// Induction: i = i ± invariant on every in-loop definition.
	Induction Class = iota
	// Reduction: s = s op expr with op associative and s otherwise unused.
	Reduction
	// MinMax: if (x REL m) { m = x; } conditional update.
	MinMax
	// Fatal: any other loop-carried scalar recurrence.
	Fatal
)

var classNames = [...]string{"induction", "reduction", "minmax", "fatal"}

func (c Class) String() string { return classNames[c] }

// Carried is one classified loop-carried scalar.
type Carried struct {
	Local *ir.Local
	Class Class
	// Step is the constant stride for constant-step inductions (0 when the
	// step is symbolic or the class is not Induction).
	Step int64
	// Op is the combining operator for reductions.
	Op ir.BinKind
}

// Onto returns c for fn, a Func.Clone of c.Local's function: the local
// maps to its copy by index (ir.Func.LocalFor).
func (c Carried) Onto(fn *ir.Func) Carried {
	c.Local = fn.LocalFor(c.Local)
	return c
}

// Env bundles the per-function analyses classification needs.
type Env struct {
	G  *cfg.Graph
	PD *cfg.PostDom
	LV *dataflow.Liveness
}

// NewEnv computes the analyses for fn on a fresh graph.
func NewEnv(fn *ir.Func) *Env { return EnvOn(cfg.New(fn)) }

// EnvOn computes the analyses on g.
func EnvOn(g *cfg.Graph) *Env {
	return &Env{G: g, PD: cfg.ComputePostDom(g), LV: dataflow.ComputeLiveness(g)}
}

// Classify returns every loop-carried scalar of the loop with its class,
// ordered by local index.
func Classify(env *Env, loop *cfg.Loop) []Carried {
	liveHdr := env.LV.LiveIn[loop.Header]
	defs := map[*ir.Local][]ir.Instr{}
	uses := map[*ir.Local][]ir.Instr{}
	instrBlock := map[ir.Instr]*ir.Block{}
	for _, b := range env.G.RPO {
		if !loop.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			instrBlock[in] = b
			if d := in.Def(); d != nil {
				defs[d] = append(defs[d], in)
			}
			for _, u := range in.Uses() {
				if u.Local != nil {
					uses[u.Local] = append(uses[u.Local], in)
				}
			}
		}
		if b.Term != nil {
			for _, u := range b.Term.Uses() {
				if u.Local != nil {
					uses[u.Local] = append(uses[u.Local], nil) // terminator use
				}
			}
		}
	}
	invariant := func(o ir.Operand) bool {
		return o.Local == nil || len(defs[o.Local]) == 0
	}
	var out []Carried
	for _, l := range liveHdr.Sorted() {
		ds := defs[l]
		if len(ds) == 0 {
			continue
		}
		c := Carried{Local: l, Class: Fatal}
		if step, ok := inductionStep(l, ds, defs, invariant); ok {
			c.Class = Induction
			c.Step = step
		} else if op, ok := reductionOp(l, ds, uses[l], defs); ok {
			c.Class = Reduction
			c.Op = op
		} else if isMinMax(l, ds, uses[l], loop, env.PD, instrBlock) {
			c.Class = MinMax
		}
		out = append(out, c)
	}
	return out
}

// reachBinOp resolves a definition to the BinOp computing it, through one
// temporary move.
func reachBinOp(d ir.Instr, defs map[*ir.Local][]ir.Instr) *ir.BinOp {
	switch in := d.(type) {
	case *ir.BinOp:
		return in
	case *ir.Mov:
		if in.Src.Local == nil {
			return nil
		}
		tds := defs[in.Src.Local]
		if len(tds) != 1 {
			return nil
		}
		bo, _ := tds[0].(*ir.BinOp)
		return bo
	}
	return nil
}

// inductionStep recognizes l = l ± invariant; the returned step is the
// constant stride, or 0 with ok=true for symbolic invariant steps.
func inductionStep(l *ir.Local, ds []ir.Instr, defs map[*ir.Local][]ir.Instr, invariant func(ir.Operand) bool) (int64, bool) {
	var step int64
	haveStep := false
	for _, d := range ds {
		bo := reachBinOp(d, defs)
		if bo == nil {
			return 0, false
		}
		if bo.Op != ir.Add && bo.Op != ir.Sub {
			return 0, false
		}
		var other ir.Operand
		switch {
		case bo.X.Local == l && invariant(bo.Y):
			other = bo.Y
		case bo.Y.Local == l && bo.Op == ir.Add && invariant(bo.X):
			other = bo.X
		default:
			return 0, false
		}
		s := int64(0)
		if other.IsConst() && other.Const.Kind == ir.KindInt {
			s = other.Const.I
			if bo.Op == ir.Sub {
				s = -s
			}
		}
		if haveStep && s != step {
			step = 0 // conflicting strides: symbolic
		} else {
			step = s
		}
		haveStep = true
	}
	return step, true
}

// reductionOp recognizes l = l op expr with l otherwise unused.
func reductionOp(l *ir.Local, ds []ir.Instr, us []ir.Instr, defs map[*ir.Local][]ir.Instr) (ir.BinKind, bool) {
	allowed := map[ir.Instr]bool{}
	var op ir.BinKind
	haveOp := false
	for _, d := range ds {
		bo := reachBinOp(d, defs)
		if bo == nil {
			return 0, false
		}
		switch bo.Op {
		case ir.Add, ir.Sub, ir.Mul, ir.BitAnd, ir.BitOr, ir.BitXor:
		default:
			return 0, false
		}
		if bo.X.Local != l && bo.Y.Local != l {
			return 0, false
		}
		if bo.Op == ir.Sub && bo.X.Local != l {
			return 0, false
		}
		norm := bo.Op
		if norm == ir.Sub {
			norm = ir.Add // x -= e accumulates like addition
		}
		if haveOp && norm != op {
			return 0, false
		}
		op, haveOp = norm, true
		allowed[bo] = true
	}
	for _, u := range us {
		if u == nil || !allowed[u] {
			return 0, false
		}
	}
	return op, haveOp
}

// isMinMax recognizes the guarded move pattern if (x REL m) { m = x; }.
func isMinMax(l *ir.Local, ds []ir.Instr, us []ir.Instr, loop *cfg.Loop, pd *cfg.PostDom, instrBlock map[ir.Instr]*ir.Block) bool {
	for _, d := range ds {
		if _, ok := d.(*ir.Mov); !ok {
			return false
		}
	}
	if len(us) == 0 {
		return false
	}
	for _, u := range us {
		if u == nil {
			return false
		}
		bo, ok := u.(*ir.BinOp)
		if !ok || !bo.Op.IsComparison() {
			return false
		}
	}
	for _, d := range ds {
		guarded := false
		for _, a := range pd.ControllingBranches(instrBlock[d]) {
			if loop.Blocks[a] {
				guarded = true
			}
		}
		if !guarded {
			return false
		}
	}
	return true
}
