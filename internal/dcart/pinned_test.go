package dcart_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dca/internal/dcart"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/vm"
)

// pinnedLiveOuts holds, per loop of edgevalues.mc's main, the live-out
// digest and string snapshot of its golden run's one invocation. Loop 0
// builds a string local and a string array; loop 1 a float array, float
// local and float field holding NaN, ±Inf, -0 and subnormals. The values
// were computed by the 48-byte value layout, which kept floats in a
// float64 field and strings in a string header.
var pinnedLiveOuts = []struct{ digest, text string }{
	{
		digest: "bbb93ddae08d96586e663f55b0a7dd84",
		text:   `o0:Acc[s"";f0;i0;bF;];o1:[]string[s"buzzbuzzfizzbuzz";s"fizz";s"fizz";s"fizz";s"fizz";];s"fizzbuzzfizzfizzbuzzfizzfizzbuzz";`,
	},
	{
		digest: "89d4d9d4c92f36fd09bff7685b4c6f2f",
		text:   `o0:Acc[s"fizzbuzzfizzfizzbuzzfizzfizzbuzz";fNaN;i8;bF;];s"fizzbuzzfizzfizzbuzzfizzfizzbuzz";o1:[]float[f-0;f0;f-Inf;f+Inf;fNaN;f-5e-324;f5e-324;f-1e+308;];f-Inf;`,
	},
}

// TestPinnedLiveOutDigests: a value layout change must leave every
// SnapshotDigest word and every string-mode snapshot unchanged. Both
// executors run each loop's instrumented program in original order.
func TestPinnedLiveOutDigests(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "edgevalues.mc"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irbuild.Compile("edgevalues.mc", string(src))
	if err != nil {
		t.Fatal(err)
	}
	type executor interface {
		Call(fn *ir.Func, args []ir.Value, parent *interp.Frame) (ir.Value, error)
	}
	for li, want := range pinnedLiveOuts {
		inst, err := instrument.Loop(prog, "main", li)
		if err != nil {
			t.Fatalf("loop %d: %v", li, err)
		}
		for _, ex := range []struct {
			name string
			mk   func(interp.Config) executor
		}{
			{"vm", func(c interp.Config) executor { return vm.New(inst.Prog, c) }},
			{"interp", func(c interp.Config) executor { return interp.New(inst.Prog, c) }},
		} {
			rt := dcart.NewRuntime(dcart.Identity{})
			rt.DebugSnapshots = true
			var out strings.Builder
			if _, err := ex.mk(interp.Config{Out: &out, Runtime: rt}).Call(inst.Prog.Func("main"), nil, nil); err != nil {
				t.Fatalf("loop %d on %s: %v", li, ex.name, err)
			}
			if len(rt.Snapshots) != 1 || rt.Snapshots[0].String() != want.digest || rt.SnapshotStrings[0] != want.text {
				t.Errorf("loop %d on %s: digests %v, snapshots %q; pinned %s, %q", li, ex.name, rt.Snapshots, rt.SnapshotStrings, want.digest, want.text)
			}
		}
	}
}
