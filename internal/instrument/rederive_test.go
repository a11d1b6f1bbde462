package instrument

import (
	"dca/internal/cfg"
	"dca/internal/dataflow"
	"dca/internal/ir"
	"dca/internal/outline"
	"dca/internal/pointer"
	"dca/internal/scalar"
)

// Rederive is the oracle Build is checked against. It instruments a loop
// without reading anything the program has already computed: it clones
// the loop's function and analyses the clone afresh (CFG, postdominators,
// liveness, loop forest and a points-to solve of the cloned program), then
// separates, outlines, classifies the loop's scalars and rewrites. Build
// must produce the same program, separation, live-out roots and scalar
// classes, or fail with the same message.
func Rederive(prog *ir.Program, fnName string, loopIndex int) (*Instrumented, error) {
	clone := prog.CloneShared(fnName)
	fn := clone.Func(fnName)
	if fn == nil {
		return nil, noFunc(fnName)
	}
	g, loops := cfg.LoopsOf(fn)
	if loopIndex < 0 || loopIndex >= len(loops) {
		return nil, outOfRange(fnName, len(loops), loopIndex)
	}
	loop := loops[loopIndex]
	preFuncs := len(clone.Funcs)
	env := &scalar.Env{G: g, PD: cfg.ComputePostDom(g), LV: dataflow.ComputeLiveness(g)}
	s, err := separate(env, loop, pointer.Analyze(clone))
	if err != nil {
		return nil, err
	}
	pay, err := outline.Outline(s.Sep)
	if err != nil {
		return nil, err
	}
	inst := &Instrumented{
		Prog:      clone,
		Fn:        fn,
		Separated: *s,
		Payload:   pay,
		Carried:   scalar.Classify(env, loop),
	}
	rewrite(inst)
	if err := verify(inst, preFuncs); err != nil {
		return nil, err
	}
	return inst, nil
}
