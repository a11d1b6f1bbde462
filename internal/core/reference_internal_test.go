package core

import (
	"os"
	"path/filepath"
	"testing"

	"dca/internal/cfg"
	"dca/internal/dcart"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/irbuild"
	"dca/internal/sandbox"
)

// TestReferenceCountsMatchGoldenRun: the invocation and iteration counts
// the reference run records for a loop equal what that loop's golden run
// observes, on a program with nested loops, a callee loop run from inside
// another loop, a return from inside a loop, a silent store and a zero-trip
// loop. Its recursive loop, whose golden run faults, must be one the
// reference run refuses to vouch for.
func TestReferenceCountsMatchGoldenRun(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "loops", "loopshapes.mc"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irbuild.Compile("loopshapes.mc", string(src))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{}.Normalized()
	ref, err := RunReference(nil, prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, fn := range prog.Funcs {
		_, loops := cfg.LoopsOf(fn)
		for _, loop := range loops {
			inst, err := instrument.Loop(prog, fn.Name, loop.Index)
			if err != nil {
				t.Fatalf("%s: %v", loop.ID(), err)
			}
			rt := dcart.NewRuntime(dcart.Identity{})
			oc := sandbox.Run(nil, inst.Prog, interp.Config{Runtime: rt}, opt.Limits(), nil)
			seen, ok := ref.observed(fn, loop, inst)
			if !oc.OK() {
				if ok {
					t.Errorf("%s: golden run trapped (%v) but the reference run vouches for the loop", loop.ID(), oc.Trap)
				}
				continue
			}
			if !ok {
				t.Errorf("%s: no reference evidence for a loop whose golden run completed", loop.ID())
				continue
			}
			if seen.Invocations != int64(rt.Invocations) || seen.Iterations != rt.Iterations {
				t.Errorf("%s: reference run counted %d invocations, %d iterations; golden run %d, %d",
					loop.ID(), seen.Invocations, seen.Iterations, rt.Invocations, rt.Iterations)
			}
			checked++
		}
	}
	if checked < 7 {
		t.Errorf("compared %d loops, want the program's 7 non-recursive loops", checked)
	}
}
