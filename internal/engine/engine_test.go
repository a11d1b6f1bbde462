package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/engine"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/sandbox"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
)

// testOptions keeps the identity-test workloads affordable: two schedules,
// like the bench suite uses.
func testOptions() core.Options {
	return core.Options{Schedules: []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}}}
}

// testPrograms builds the identity-test workloads: a spread of PLDS
// programs always; the far more expensive NPB proxies and the
// long-running PLDS BFS only outside -short mode.
func testPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := map[string]*ir.Program{}
	pldsNames := []string{"treeadd", "429.mcf", "ks", "em3d"}
	if !testing.Short() {
		pldsNames = append(pldsNames, "BFS")
		for _, name := range []string{"EP", "IS"} {
			p, err := npb.SpecByName(name).Compile()
			if err != nil {
				t.Fatalf("compile NPB %s: %v", name, err)
			}
			progs["npb/"+name] = p
		}
	}
	for _, name := range pldsNames {
		p, err := plds.ByName(name).Compile()
		if err != nil {
			t.Fatalf("compile PLDS %s: %v", name, err)
		}
		progs["plds/"+name] = p
	}
	return progs
}

// testWorkers returns the deduplicated worker counts under test.
func testWorkers() []int {
	ws := []int{1, 4}
	if j := runtime.GOMAXPROCS(0); j != 1 && j != 4 {
		ws = append(ws, j)
	}
	return ws
}

// assertIdentical asserts two reports are byte- and field-identical:
// verdicts, reasons, ordering, and every counter.
func assertIdentical(t *testing.T, label string, seq, par *core.Report) {
	t.Helper()
	if seq.String() != par.String() {
		t.Fatalf("%s: reports differ\n--- sequential ---\n%s--- parallel ---\n%s", label, seq, par)
	}
	if len(seq.Loops) != len(par.Loops) {
		t.Fatalf("%s: loop counts differ: %d vs %d", label, len(seq.Loops), len(par.Loops))
	}
	for i := range seq.Loops {
		// Elapsed is wall-clock, and Replays counts work performed — the
		// verdict cache legitimately reduces it.
		// Neither is part of the verdict-identity contract; every other
		// field must match exactly.
		a, b := *seq.Loops[i], *par.Loops[i]
		a.Elapsed, b.Elapsed = 0, 0
		a.Replays, b.Replays = 0, 0
		a.DurStatic, b.DurStatic = 0, 0
		a.DurGolden, b.DurGolden = 0, 0
		a.DurReplay, b.DurReplay = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: loop %d differs:\n  seq: %+v\n  par: %+v", label, i, a, b)
		}
	}
}

// TestParallelMatchesSequential: the engine at -j 1, -j 4, and
// -j GOMAXPROCS must produce reports identical to core.Analyze on the NPB
// proxies and PLDS programs. Run under -race this also exercises the
// pool's sharing discipline.
func TestParallelMatchesSequential(t *testing.T) {
	opt := testOptions()
	workers := testWorkers()
	for name, prog := range testPrograms(t) {
		seq, err := core.Analyze(prog, opt)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, j := range workers {
			par, err := engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: j})
			if err != nil {
				t.Fatalf("%s -j %d: %v", name, j, err)
			}
			assertIdentical(t, fmt.Sprintf("%s -j %d", name, j), seq, par)
		}
	}
}

// TestParallelMatchesSequentialUnderInjection: identity must also hold when
// the sandbox injector deterministically trips traps mid-replay — the
// engine serializes each loop's replays so the trip counter is consumed in
// sequential order.
func TestParallelMatchesSequentialUnderInjection(t *testing.T) {
	prog, err := plds.ByName("treeadd").Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := testOptions()
	cases := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"fault-at-intrinsic", func(o *core.Options) {
			o.Inject = sandbox.Inject{AtIntrinsic: 40, Kind: sandbox.Fault}
		}},
		{"panic-at-intrinsic", func(o *core.Options) {
			o.Inject = sandbox.Inject{AtIntrinsic: 25, Kind: sandbox.Panic}
		}},
		{"fault-max-trips", func(o *core.Options) {
			o.Inject = sandbox.Inject{AtIntrinsic: 40, Kind: sandbox.Fault, MaxTrips: 1}
		}},
		{"fault-targeted", func(o *core.Options) {
			o.Inject = sandbox.Inject{AtStep: 500, Kind: sandbox.Fault}
			o.InjectFn = "TreeAdd"
			o.InjectLoop = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			tc.mod(&opt)
			seq, err := core.Analyze(prog, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []int{1, 4} {
				par, err := engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: j})
				if err != nil {
					t.Fatalf("-j %d: %v", j, err)
				}
				assertIdentical(t, fmt.Sprintf("%s -j %d", tc.name, j), seq, par)
			}
		})
	}
}

// prescreenSrc has three loops with distinct coverage shapes: one the
// workload executes, one whose header executes but whose payload never
// runs (zero trip count), and one inside a function that is never called.
const prescreenSrc = `
func work(a []int, n int) {
	for (var i int = 0; i < n; i++) {
		a[i] = a[i] * 2 + 1;
	}
}
func dead(a []int) {
	for (var i int = 0; i < 10; i++) {
		a[i] = 0;
	}
}
func main() {
	var a []int = new [16]int;
	for (var i int = 0; i < 16; i++) {
		a[i] = i;
	}
	work(a, 16);
	work(a, 0);
	var s int = 0;
	for (var i int = 0; i < 16; i++) {
		s = s + a[i];
	}
	print(s);
}
`

// TestPrescreenSoundness: the zero-iteration decision (traced as a
// prescreen skip) may only claim loops whose payload never runs in the
// reference run. A loop that is entered but whose payload never runs in
// one call (work(a, 0) alone would give zero iterations — here the loop
// also runs with n=16, so it is fully tested) and a loop in a never-called
// function must both land on the same verdicts as the sequential path.
func TestPrescreenSoundness(t *testing.T) {
	prog, err := irbuild.Compile("prescreen.mc", prescreenSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	seq, err := core.Analyze(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "prescreen", seq, par)

	// The never-called function's loop is provable, but execution evidence
	// outranks a symbolic proof: the reference run's zero iterations decide
	// NotExecuted before the prover runs, never static-proved — identical
	// to the -no-prove path.
	deadRes := par.Result("dead", 0)
	if deadRes == nil || deadRes.Verdict != core.NotExecuted {
		t.Fatalf("dead loop: %+v", deadRes)
	}
	if deadRes.Provenance == core.ProvenanceProved {
		t.Errorf("dead loop carries static-proved provenance: %+v", deadRes)
	}

	// With the prover off the verdicts must be the same.
	opt.NoProve = true
	seq, err = core.Analyze(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err = engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "prescreen (no-prove)", seq, par)
	deadRes = par.Result("dead", 0)
	if deadRes == nil || deadRes.Verdict != core.NotExecuted {
		t.Fatalf("dead loop without prover: %+v", deadRes)
	}
}

// zeroTripSrc isolates the header-executes/payload-never case: the only
// call runs the loop with a zero trip count, so the loop is invoked once
// but its payload never runs. The reference run decides NotExecuted, with
// the invocation it counted, exactly as the golden run does under
// NoFootprint. The loop's symbolic bound makes it provable, and the proved
// path must reach the very same verdict: the proof is discarded when the
// payload never runs.
const zeroTripSrc = `
func work(a []int, n int) {
	for (var i int = 0; i < n; i++) {
		a[i] = a[i] * 2;
	}
}
func main() {
	var a []int = new [4]int;
	work(a, 0);
	print(a[0]);
}
`

func TestZeroTripLoopDecidedFromReference(t *testing.T) {
	prog, err := irbuild.Compile("zerotrip.mc", zeroTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.NoProve = true
	par, err := engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := par.Result("work", 0)
	if res == nil {
		t.Fatal("no result for work loop")
	}
	if res.Verdict != core.NotExecuted {
		t.Fatalf("verdict = %s (%s), want not-executed", res.Verdict, res.Reason)
	}
	// The loop was entered once, and no instrumented run was needed to
	// say so.
	if res.Invocations != 1 || res.Replays != 0 {
		t.Errorf("zero-trip loop: %d invocations, %d executions; want the reference run's 1 and none", res.Invocations, res.Replays)
	}
	// The golden-run oracle observes the same invocation.
	opt.NoFootprint = true
	oracle, err := engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if o := oracle.Result("work", 0); o.Verdict != res.Verdict || o.Reason != res.Reason ||
		o.Invocations != res.Invocations || o.Replays != 1 {
		t.Errorf("golden-run oracle: %+v, want the same verdict and counts after one golden run", o)
	}
	opt.NoFootprint = false
	seq, err := core.Analyze(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "zerotrip", seq, par)

	// Prover on: the zero iterations win before the prover runs, on both
	// engine paths — the verdict is byte-identical to the -no-prove run.
	opt.NoProve = false
	seq, err = core.Analyze(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err = engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "zerotrip (prove)", seq, par)
	res = par.Result("work", 0)
	if res == nil || res.Verdict != core.NotExecuted {
		t.Fatalf("zero-trip loop with prover: %+v", res)
	}
	if res.Provenance == core.ProvenanceProved {
		t.Errorf("zero-trip loop carries static-proved provenance: %+v", res)
	}
}

// TestSharedPool: several Analyze calls drawing from one pool must still
// produce identical reports (the suite-level fan-out shape).
func TestSharedPool(t *testing.T) {
	opt := testOptions()
	pool := engine.NewPool(4)
	progs := map[string]*ir.Program{}
	for _, name := range []string{"treeadd", "429.mcf", "ks"} {
		p, err := plds.ByName(name).Compile()
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = p
	}
	type named struct {
		name string
		rep  *core.Report
	}
	ch := make(chan named, len(progs))
	for name, prog := range progs {
		go func(name string, prog *ir.Program) {
			rep, err := engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Pool: pool})
			if err != nil {
				t.Errorf("%s: %v", name, err)
				ch <- named{name, nil}
				return
			}
			ch <- named{name, rep}
		}(name, prog)
	}
	got := map[string]*core.Report{}
	for range progs {
		n := <-ch
		got[n.name] = n.rep
	}
	for name, prog := range progs {
		if got[name] == nil {
			continue
		}
		seq, err := core.Analyze(prog, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "pool/"+name, seq, got[name])
	}
}
