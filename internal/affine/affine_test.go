package affine_test

import (
	"sync"
	"testing"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/irbuild"
)

func envOf(t *testing.T, src, fn string) (*affine.Env, []*cfg.Loop) {
	t.Helper()
	prog, err := irbuild.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	env := affine.NewEnv(prog.Func(fn))
	return env, env.Loops
}

func TestLoopInfoConstTrip(t *testing.T) {
	env, loops := envOf(t, `func main() { for (var i int = 0; i < 17; i++) { } }`, "main")
	info := env.Info[loops[0]]
	if !info.OK || info.Step != 1 || info.Trip != 17 {
		t.Errorf("info = %+v (%s)", info, info.Why)
	}
}

func TestLoopInfoStrides(t *testing.T) {
	cases := []struct {
		src  string
		trip int64
	}{
		{`func main() { for (var i int = 0; i < 10; i += 3) { } }`, 4},
		{`func main() { for (var i int = 10; i > 0; i--) { } }`, 10},
		{`func main() { for (var i int = 0; i <= 10; i += 2) { } }`, 6},
		{`func main() { for (var i int = 10; i >= 1; i -= 2) { } }`, 5},
	}
	for k, c := range cases {
		env, loops := envOf(t, c.src, "main")
		info := env.Info[loops[0]]
		if !info.OK || info.Trip != c.trip {
			t.Errorf("case %d: trip = %d (ok=%v %s), want %d", k, info.Trip, info.OK, info.Why, c.trip)
		}
	}
}

func TestSymbolicBound(t *testing.T) {
	env, loops := envOf(t, `
func f(n int) {
	for (var i int = 0; i < n; i++) { }
}
func main() { f(3); }`, "f")
	info := env.Info[loops[0]]
	if !info.OK || info.Trip != -1 {
		t.Errorf("symbolic bound: %+v", info)
	}
}

func TestNonAffineLoopRejected(t *testing.T) {
	env, loops := envOf(t, `
struct N { next *N; }
func main() {
	var p *N = nil;
	while (p != nil) { p = p->next; }
}`, "main")
	if env.Info[loops[0]].OK {
		t.Error("pointer-chase loop must not be affine")
	}
}

func TestSubscriptExtraction(t *testing.T) {
	env, loops := envOf(t, `
func main() {
	var a []int = new [100]int;
	for (var i int = 0; i < 10; i++) {
		a[2*i + 3] = i;
		a[i << 2] = i;
	}
	print(a[0]);
}`, "main")
	accs := env.Accesses(loops[0])
	var stores []affine.Access
	for _, a := range accs {
		if a.IsWrite {
			stores = append(stores, a)
		}
	}
	if len(stores) != 2 {
		t.Fatalf("stores = %d", len(stores))
	}
	iv := env.Info[loops[0]].IV
	if c := stores[0].Sub.Coeff(iv); c != 2 || stores[0].Sub.Const != 3 {
		t.Errorf("subscript 1 = %s", stores[0].Sub)
	}
	if c := stores[1].Sub.Coeff(iv); c != 4 {
		t.Errorf("shift subscript coeff = %d", c)
	}
}

func TestIndirectSubscriptNotAffine(t *testing.T) {
	env, loops := envOf(t, `
func main() {
	var b []int = new [10]int;
	var a []int = new [10]int;
	for (var i int = 0; i < 10; i++) { a[b[i]] = i; }
	print(a[0]);
}`, "main")
	found := false
	for _, a := range env.Accesses(loops[0]) {
		if a.IsWrite && a.SubErr != nil {
			found = true
		}
	}
	if !found {
		t.Error("indirect store subscript must be non-affine")
	}
}

func TestCarriedTests(t *testing.T) {
	// Strong SIV: a[i] vs a[i-1] → carried; a[2i] vs a[2i+1] → independent.
	env, loops := envOf(t, `
func main() {
	var a []int = new [100]int;
	for (var i int = 1; i < 40; i++) {
		a[i] = a[i-1];
		a[2*i] = a[2*i+1];
	}
	print(a[0]);
}`, "main")
	loop := loops[0]
	accs := env.Accesses(loop)
	// accs order: load a[i-1], store a[i], load a[2i+1], store a[2i]
	if len(accs) != 4 {
		t.Fatalf("accs = %d", len(accs))
	}
	loadIm1, storeI, load2ip1, store2i := accs[0], accs[1], accs[2], accs[3]
	if !env.Carried(storeI, loadIm1, loop) {
		t.Error("a[i] vs a[i-1] must be carried")
	}
	if env.Carried(store2i, load2ip1, loop) {
		t.Error("a[2i] vs a[2i+1] must be independent")
	}
	if env.Carried(storeI, storeI, loop) {
		t.Error("a[i] with itself: injective, no carried WAW")
	}
}

func TestZIVTest(t *testing.T) {
	env, loops := envOf(t, `
func main() {
	var a []int = new [10]int;
	for (var i int = 0; i < 5; i++) {
		a[0] = a[7];
	}
	print(a[0]);
}`, "main")
	loop := loops[0]
	accs := env.Accesses(loop)
	load7, store0 := accs[0], accs[1]
	if env.Carried(store0, load7, loop) {
		t.Error("a[0] vs a[7]: distinct constants, independent")
	}
	if !env.Carried(store0, store0, loop) {
		t.Error("a[0] written every iteration: carried WAW")
	}
}

func TestInnerIVRange(t *testing.T) {
	// Outer test: m[8i + j] with j in [0,8) — rows are disjoint across i.
	env, loops := envOf(t, `
func main() {
	var m []int = new [64]int;
	for (var i int = 0; i < 8; i++) {
		for (var j int = 0; j < 8; j++) { m[8*i + j] = i; }
	}
	print(m[0]);
}`, "main")
	outer := loops[0]
	accs := env.Accesses(outer)
	var store affine.Access
	for _, a := range accs {
		if a.IsWrite {
			store = a
		}
	}
	if env.Carried(store, store, outer) {
		t.Error("8i+j rows are disjoint across outer iterations")
	}
}

func TestInnerIVRangeOverlap(t *testing.T) {
	// m[4i + j] with j in [0,8): rows overlap across i.
	env, loops := envOf(t, `
func main() {
	var m []int = new [64]int;
	for (var i int = 0; i < 8; i++) {
		for (var j int = 0; j < 8; j++) { m[4*i + j] = i; }
	}
	print(m[0]);
}`, "main")
	outer := loops[0]
	var store affine.Access
	for _, a := range env.Accesses(outer) {
		if a.IsWrite {
			store = a
		}
	}
	if !env.Carried(store, store, outer) {
		t.Error("4i+j rows overlap: carried dependence")
	}
}

func TestMemReductionGroups(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func main() {
	var h []int = new [8]int;
	var b []int = new [32]int;
	for (var i int = 0; i < 32; i++) {
		h[b[i] % 8] += 1;
		h[0] = 5;
	}
	print(h[0]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	groups := affine.MemReductionGroups(prog.Func("main"))
	if len(groups) != 2 {
		t.Errorf("group instrs = %d, want 2 (the load and store of the += only)", len(groups))
	}
}

// TestEnvOfShared: concurrent callers share one environment per function
// of a program, and the environment analyzes the function it is keyed by.
// Run under -race.
func TestEnvOfShared(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func f(n int) int { var s int = 0; for (var i int = 0; i < n; i++) { s += i; } return s; }
func main() { for (var j int = 0; j < 3; j++) { print(f(j)); } }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got := make([][]*affine.Env, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, fn := range prog.Funcs {
				got[w] = append(got[w], affine.EnvOf(prog, fn))
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for k, env := range got[w] {
			if env != got[0][k] {
				t.Fatalf("goroutine %d got its own environment for %s", w, prog.Funcs[k].Name)
			}
			if env.Fn != prog.Funcs[k] || len(env.Loops) != 1 {
				t.Fatalf("environment for %s analyzes %s with %d loops", prog.Funcs[k].Name, env.Fn.Name, len(env.Loops))
			}
		}
	}
}
