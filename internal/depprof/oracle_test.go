package depprof

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/fuzzgen"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/vm"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
)

// This file keeps the map-based tracer the Builder replaced, as the oracle
// the Builder must reproduce field for field: one map of address states
// per loop invocation, LoopSteps and Contains keyed by LoopKey, and the
// block chains in a map keyed by block. Its reduction groups are numbered
// program-wide, like the Builder's.

type refAddr struct {
	obj int64
	idx int
}

type refAddrState struct {
	lastWriteIter int64
	firstReadIter int64
	curIter       int64
	writtenInCur  bool
	everReadFirst bool
	// group tracking: -1 unset, -2 mixed, else reduction group id
	group         int
	raw, war, waw bool
}

type refInvocation struct {
	loop  *cfg.Loop
	key   LoopKey
	iter  int64
	addrs map[refAddr]*refAddrState
	lp    *LoopProfile
}

type refTracer struct {
	prof    *Profile
	chainOf map[*ir.Block][]*cfg.Loop // outermost..innermost loops containing block
	groupOf map[ir.Instr]int          // program-wide reduction group ids
	frames  []*refFrame
	active  []*refInvocation
}

type refFrame struct {
	pushed int
}

func newRefTracer(prog *ir.Program) *refTracer {
	tr := &refTracer{
		prof: &Profile{
			Loops:     map[LoopKey]*LoopProfile{},
			LoopSteps: map[LoopKey]int64{},
			Contains:  map[LoopKey]map[LoopKey]bool{},
		},
		chainOf: map[*ir.Block][]*cfg.Loop{},
		groupOf: map[ir.Instr]int{},
	}
	base := 0
	for _, fn := range prog.Funcs {
		_, loops := cfg.LoopsOf(fn)
		for _, l := range loops {
			tr.prof.Loops[LoopKey{fn.Name, l.Index}] = &LoopProfile{Key: LoopKey{fn.Name, l.Index}, Loop: l}
		}
		for _, b := range fn.Blocks {
			var chain []*cfg.Loop
			for _, l := range loops {
				if l.Blocks[b] {
					chain = append(chain, l)
				}
			}
			for i := 0; i < len(chain); i++ {
				for j := i + 1; j < len(chain); j++ {
					if chain[j].Depth < chain[i].Depth {
						chain[i], chain[j] = chain[j], chain[i]
					}
				}
			}
			tr.chainOf[b] = chain
		}
		top := 0
		for in, g := range affine.MemReductionGroups(fn) {
			tr.groupOf[in] = base + g
			top = max(top, g)
		}
		base += top
	}
	return tr
}

// refTrace runs prog on the tree-walker under the reference tracer, with
// Trace's budget and fault semantics.
func refTrace(prog *ir.Program, maxSteps int64) (*Profile, error) {
	tr := newRefTracer(prog)
	res, err := interp.Run(prog, interp.Config{Tracer: tr, MaxSteps: maxSteps})
	var be *interp.BudgetError
	switch {
	case err == nil:
		tr.prof.Steps = res.Steps
	case errors.As(err, &be):
		tr.prof.Truncated = true
		tr.prof.Steps = be.Steps
	default:
		return nil, err
	}
	for len(tr.active) > 0 {
		tr.closeInvocation(tr.active[len(tr.active)-1])
		tr.active = tr.active[:len(tr.active)-1]
	}
	return tr.prof, nil
}

func (tr *refTracer) OnCall(*interp.Frame) { tr.frames = append(tr.frames, &refFrame{}) }

func (tr *refTracer) OnRet(*interp.Frame) {
	fc := tr.frames[len(tr.frames)-1]
	for i := 0; i < fc.pushed; i++ {
		tr.closeInvocation(tr.active[len(tr.active)-1])
		tr.active = tr.active[:len(tr.active)-1]
	}
	tr.frames = tr.frames[:len(tr.frames)-1]
}

func (tr *refTracer) OnBlock(fr *interp.Frame, b *ir.Block) {
	fc := tr.frames[len(tr.frames)-1]
	for fc.pushed > 0 {
		top := tr.active[len(tr.active)-1]
		if top.loop.Blocks[b] {
			break
		}
		tr.closeInvocation(top)
		tr.active = tr.active[:len(tr.active)-1]
		fc.pushed--
	}
	for _, l := range tr.chainOf[b] {
		found := false
		for i := len(tr.active) - fc.pushed; i < len(tr.active); i++ {
			if tr.active[i].loop == l {
				found = true
				break
			}
		}
		if found {
			continue
		}
		key := LoopKey{fr.Fn.Name, l.Index}
		inv := &refInvocation{loop: l, key: key, addrs: map[refAddr]*refAddrState{}, lp: tr.prof.Loops[key]}
		inv.lp.Invocations++
		for _, anc := range tr.active {
			m := tr.prof.Contains[anc.key]
			if m == nil {
				m = map[LoopKey]bool{}
				tr.prof.Contains[anc.key] = m
			}
			m[key] = true
		}
		tr.active = append(tr.active, inv)
		fc.pushed++
	}
	for i := len(tr.active) - fc.pushed; i >= 0 && i < len(tr.active); i++ {
		inv := tr.active[i]
		if inv.loop.Header == b {
			inv.iter++
			inv.lp.Iterations++
			if len(inv.loop.Blocks) == 1 {
				inv.lp.BodyExecuted = true
			}
		} else if inv.loop.Blocks[b] {
			inv.lp.BodyExecuted = true
		}
	}
	cost := int64(len(b.Instrs)) + 1
	for _, inv := range tr.active {
		tr.prof.LoopSteps[inv.key] += cost
	}
}

func (tr *refTracer) OnLoad(_ *interp.Frame, in *ir.Load, obj *ir.Object, idx int) {
	a := refAddr{obj.ID, idx}
	g, hasG := tr.groupOf[in]
	for _, inv := range tr.active {
		st := inv.state(a)
		if st.curIter != inv.iter {
			st.curIter = inv.iter
			st.writtenInCur = false
		}
		if !st.writtenInCur {
			st.everReadFirst = true
			if st.lastWriteIter > 0 && st.lastWriteIter != inv.iter {
				st.raw = true
			}
		}
		if st.firstReadIter == 0 {
			st.firstReadIter = inv.iter
		}
		st.updateGroup(g, hasG)
	}
}

func (tr *refTracer) OnStore(_ *interp.Frame, in *ir.Store, obj *ir.Object, idx int) {
	a := refAddr{obj.ID, idx}
	g, hasG := tr.groupOf[in]
	for _, inv := range tr.active {
		st := inv.state(a)
		if st.curIter != inv.iter {
			st.curIter = inv.iter
			st.writtenInCur = false
		}
		if st.firstReadIter > 0 && st.firstReadIter != inv.iter {
			st.war = true
		}
		if st.lastWriteIter > 0 && st.lastWriteIter != inv.iter {
			st.waw = true
		}
		st.lastWriteIter = inv.iter
		st.writtenInCur = true
		st.updateGroup(g, hasG)
	}
}

func (inv *refInvocation) state(a refAddr) *refAddrState {
	st, ok := inv.addrs[a]
	if !ok {
		st = &refAddrState{group: -1}
		inv.addrs[a] = st
	}
	return st
}

func (st *refAddrState) updateGroup(g int, hasG bool) {
	if !hasG {
		st.group = -2
		return
	}
	switch st.group {
	case -1:
		st.group = g
	case g:
	default:
		st.group = -2
	}
}

func (tr *refTracer) closeInvocation(inv *refInvocation) {
	lp := inv.lp
	for _, st := range inv.addrs {
		if st.group >= 0 {
			lp.ReductionAddrs = true
			continue
		}
		if st.raw {
			lp.FatalRAW = true
			lp.addrFatalRAW++
			continue
		}
		if st.war || st.waw {
			lp.NeedPriv = true
			lp.addrNeedPriv++
			if st.everReadFirst {
				lp.addrPrivFail++
			}
		}
	}
}

// vmTrace runs prog on the bytecode VM under a Builder.
func vmTrace(prog *ir.Program, maxSteps int64) (*Profile, error) {
	b := NewBuilder(prog, true)
	m := vm.New(prog, interp.Config{Tracer: b, MaxSteps: maxSteps})
	_, err := m.Call(prog.Func("main"), nil, nil)
	var be *interp.BudgetError
	switch {
	case err == nil:
		return b.Profile(m.Steps(), false), nil
	case errors.As(err, &be):
		return b.Profile(be.Steps, true), nil
	}
	return nil, err
}

// diffProfiles describes the first difference between two profiles of one
// program, "" when they agree on every field, per-address counts included.
func diffProfiles(want, got *Profile) string {
	if want.Steps != got.Steps || want.Truncated != got.Truncated {
		return fmt.Sprintf("steps/truncated: want %d/%v, got %d/%v", want.Steps, want.Truncated, got.Steps, got.Truncated)
	}
	if len(want.Loops) != len(got.Loops) {
		return fmt.Sprintf("%d loops, want %d", len(got.Loops), len(want.Loops))
	}
	keys := make([]LoopKey, 0, len(want.Loops))
	for k := range want.Loops {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].Fn < keys[j].Fn || keys[i].Fn == keys[j].Fn && keys[i].Index < keys[j].Index
	})
	for _, k := range keys {
		w, g := *want.Loops[k], got.Loops[k]
		if g == nil {
			return fmt.Sprintf("%v: missing", k)
		}
		if w.Loop.ID() != g.Loop.ID() {
			return fmt.Sprintf("%v: loop %s, want %s", k, g.Loop.ID(), w.Loop.ID())
		}
		w.Loop = g.Loop
		if w != *g {
			return fmt.Sprintf("%v: got %+v, want %+v", k, *g, w)
		}
	}
	if !reflect.DeepEqual(want.LoopSteps, got.LoopSteps) {
		return fmt.Sprintf("LoopSteps: got %v, want %v", got.LoopSteps, want.LoopSteps)
	}
	if !reflect.DeepEqual(want.Contains, got.Contains) {
		return fmt.Sprintf("Contains: got %v, want %v", got.Contains, want.Contains)
	}
	return ""
}

// depShapes exercises each per-address outcome: a carried true dependence,
// a write-first privatizable scratch array, a read-first address carried
// only by output dependences (a failed privatization), an op= reduction
// in a callee, an address shared by two reduction groups and one shared by
// a group and a plain access.
const depShapes = `
func inc(h []int, k int) { h[k] = h[k] + 1; }
func dbl(h []int, k int) { h[k] = h[k] * 2; }
func main() {
	var a []int = new [8]int;
	var b []int = new [2]int;
	var t []int = new [4]int;
	var h []int = new [4]int;
	for (var i int = 1; i < 8; i++) { a[i] = a[i-1] + 1; }
	for (var i int = 0; i < 4; i++) {
		for (var j int = 0; j < 4; j++) { t[j] = i + j; }
		a[i] = t[0] + t[3];
	}
	for (var i int = 0; i < 4; i++) {
		if (i == 0) { a[7] = b[0]; }
		b[0] = i;
	}
	for (var i int = 0; i < 8; i++) { inc(h, i % 4); }
	for (var i int = 0; i < 8; i++) { if (i % 2 == 0) { inc(h, 0); } else { dbl(h, 0); } }
	for (var i int = 0; i < 8; i++) { inc(h, 1); a[0] = h[1]; }
	print(a[7] + h[0] + b[0]);
}`

// TestBuilderMatchesReference: the Builder on the VM reproduces the
// map-based tracer on the tree-walker — every Profile field and the
// per-address counts behind verdict reasons — over the loop-shape corpus,
// depShapes, the ten NPB proxies, the PLDS programs and fuzzgen seeds
// 1-1000, each run to completion and cut by step budgets of 50 and 5000.
func TestBuilderMatchesReference(t *testing.T) {
	type input struct {
		name string
		prog *ir.Program
	}
	var inputs []input
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "loops", "loopshapes.mc"))
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := irbuild.Compile("loopshapes.mc", string(src))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"loopshapes", shapes})
	deps, err := irbuild.Compile("deps.mc", depShapes)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"deps", deps})
	for _, s := range npb.Specs() {
		prog, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"npb/" + s.Name, prog})
	}
	for _, p := range plds.Programs() {
		prog, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"plds/" + p.Name, prog})
	}
	for seed := 1; seed <= 1000; seed++ {
		prog, err := irbuild.Compile("fuzz.mc", fuzzgen.New(int64(seed)).Render())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("fuzz/%d", seed), prog})
	}
	for _, in := range inputs {
		for _, budget := range []int64{0, 50, 5000} {
			want, errW := refTrace(in.prog, budget)
			got, errG := vmTrace(in.prog, budget)
			if (errW == nil) != (errG == nil) || errW != nil && errW.Error() != errG.Error() {
				t.Fatalf("%s budget %d: errors diverge: reference %v, builder %v", in.name, budget, errW, errG)
			}
			if errW != nil {
				continue
			}
			if d := diffProfiles(want, got); d != "" {
				t.Fatalf("%s budget %d: %s", in.name, budget, d)
			}
		}
	}
}
