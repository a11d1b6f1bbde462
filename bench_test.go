// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`); each
// Benchmark prints the paper-vs-measured rows once and then times the
// regeneration. The Ablation benchmarks exercise the design choices called
// out in DESIGN.md, and the Parallel benchmarks measure real goroutine
// speedups of DCA-parallelized loops on the host.
package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"dca/internal/bench"
	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/dataflow"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/irbuild"
	"dca/internal/iterrec"
	"dca/internal/parallel"
	"dca/internal/pointer"
	"dca/internal/sandbox"
	"dca/internal/workloads/npb"
	"dca/internal/workloads/plds"
)

var printOnce sync.Once

// smallSuite runs the two fast NPB proxies; the full suite is exercised by
// BenchmarkTableI (which reports all ten rows once).
func smallSuite(b *testing.B) *bench.Suite {
	b.Helper()
	s := &bench.Suite{}
	for _, name := range []string{"EP", "IS"} {
		r, err := bench.RunNPB(npb.SpecByName(name))
		if err != nil {
			b.Fatal(err)
		}
		s.Results = append(s.Results, r)
	}
	return s
}

var (
	fullSuiteOnce sync.Once
	fullSuite     *bench.Suite
	fullSuiteErr  error
)

func fullNPB(b *testing.B) *bench.Suite {
	b.Helper()
	fullSuiteOnce.Do(func() { fullSuite, fullSuiteErr = bench.RunSuite() })
	if fullSuiteErr != nil {
		b.Fatal(fullSuiteErr)
	}
	return fullSuite
}

// BenchmarkTableI regenerates Table I (dynamic techniques vs DCA over the
// ten NPB proxies) and prints it once.
func BenchmarkTableI(b *testing.B) {
	s := fullNPB(b)
	printOnce.Do(func() {
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr, s.TableI())
		fmt.Fprintln(os.Stderr, s.TableIII())
		fmt.Fprintln(os.Stderr, s.TableIV())
		fmt.Fprintln(os.Stderr, s.Figure6())
		fmt.Fprintln(os.Stderr, s.Figure7())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range s.Results {
			_ = r.Counts()
		}
	}
}

// BenchmarkTableIII times the static-tool detection over two benchmarks
// (the detection itself, not the workload generation).
func BenchmarkTableIII(b *testing.B) {
	s := smallSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range s.Results {
			row := r.Counts()
			if row.Combined == 0 {
				b.Fatal("no static detections")
			}
		}
	}
}

// BenchmarkTableIV times the accuracy/coverage computation.
func BenchmarkTableIV(b *testing.B) {
	s := smallSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range s.Results {
			if _, fp, fn := r.Accuracy(); fp != 0 || fn != 0 {
				b.Fatal("accuracy regression")
			}
			r.Coverage()
		}
	}
}

// BenchmarkTableII regenerates the PLDS detection table for two
// representative workloads per iteration.
func BenchmarkTableII(b *testing.B) {
	progs := []*plds.Program{plds.ByName("429.mcf"), plds.ByName("ks")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var results []*bench.PLDSResult
		for _, p := range progs {
			r, err := bench.RunPLDS(p)
			if err != nil {
				b.Fatal(err)
			}
			if !r.DCAFound || len(r.BaselinesDetecting) != 0 {
				b.Fatalf("%s: Table II regression: %+v", p.Name, r)
			}
			results = append(results, r)
		}
		_ = bench.TableII(results)
	}
}

// BenchmarkFigure5 regenerates a Fig. 5 speedup point (treeadd).
func BenchmarkFigure5(b *testing.B) {
	p := plds.ByName("treeadd")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunPLDS(p)
		if err != nil {
			b.Fatal(err)
		}
		if r.Speedup < 4 {
			b.Fatalf("treeadd speedup regression: %.2f", r.Speedup)
		}
	}
}

// BenchmarkFigure6 regenerates the EP speedup series (the paper's 55.2x
// headline point).
func BenchmarkFigure6(b *testing.B) {
	r, err := bench.RunNPB(npb.SpecByName("EP"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := r.Speedups()
		if s.DCA < 40 || s.DCA < s.ICC {
			b.Fatalf("EP speedup regression: %+v", s)
		}
	}
}

// BenchmarkFigure7 regenerates the expert-comparison series for MG.
func BenchmarkFigure7(b *testing.B) {
	r, err := bench.RunNPB(npb.SpecByName("MG"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := r.Speedups()
		if s.ExpertFull < s.DCA-0.1 {
			b.Fatalf("expert-full below DCA: %+v", s)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md). ---

const ablationSrc = `
func main() {
	var a []int = new [200]int;
	for (var i int = 0; i < 200; i++) { a[i] = (i * 13 + 7) % 101; }
	var s int = 0;
	for (var i int = 0; i < 200; i++) { s += a[i]; }
	print(s);
}
`

// BenchmarkAblationSchedules measures detection cost against the number of
// permutation schedules (the paper's safety/cost trade-off in §IV-B2).
func BenchmarkAblationSchedules(b *testing.B) {
	prog, err := irbuild.Compile("abl.mc", ablationSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		scheds := []dcart.Schedule{dcart.Reverse{}}
		for i := 1; i < n; i++ {
			scheds = append(scheds, dcart.Random{Seed: int64(i)})
		}
		b.Run(fmt.Sprintf("schedules-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.Analyze(prog, core.Options{Schedules: scheds})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Count(core.Commutative) != 2 {
					b.Fatal("detection changed under schedule count")
				}
			}
		})
	}
}

// BenchmarkAblationSnapshot compares deep live-out snapshots against the
// scalar-only alternative DESIGN.md rejects (deep capture observes heap
// mutations reachable from live-through pointers).
func BenchmarkAblationSnapshot(b *testing.B) {
	prog, err := irbuild.Compile("abl.mc", ablationSrc)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := instrument.Loop(prog, "main", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("deep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := dcart.NewRuntime(dcart.Identity{})
			rt.DebugSnapshots = true
			if oc := sandbox.Run(nil, inst.Prog, interp.Config{Runtime: rt}, sandbox.Limits{}, nil); !oc.OK() {
				b.Fatal(oc.Trap)
			}
			if len(rt.Snapshots) != 1 || len(rt.SnapshotStrings[0]) < 200 {
				b.Fatal("deep snapshot should serialize the array")
			}
		}
	})
}

// BenchmarkAblationRegions compares iterator recognition under the two
// memory-region granularities: the field-sensitive regions DCA uses, and
// the object-granular ablation (pointer.AnalyzeFieldInsensitive), under
// which the canonical PLDS map loses its payload entirely.
func BenchmarkAblationRegions(b *testing.B) {
	prog, err := irbuild.Compile("abl.mc", `
struct Node { val int; next *Node; }
func walk(head *Node) {
	var p *Node = head;
	while (p != nil) { p->val = p->val * 2 + 1; p = p->next; }
}
func main() {
	var n *Node = new Node;
	walk(n);
	print(n->val);
}`)
	if err != nil {
		b.Fatal(err)
	}
	fn := prog.Func("walk")
	g, loops := cfg.LoopsOf(fn)
	pd := cfg.ComputePostDom(g)
	lv := dataflow.ComputeLiveness(g)
	b.Run("field-sensitive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sep := iterrec.Separate(g, pd, loops[0], pointer.Analyze(prog), lv)
			if !sep.OK {
				b.Fatalf("must separate: %s", sep.Reason)
			}
		}
	})
	b.Run("object-granular", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sep := iterrec.Separate(g, pd, loops[0], pointer.AnalyzeFieldInsensitive(prog), lv)
			if sep.OK {
				b.Fatal("ablation should lose the payload")
			}
		}
	})
}

// --- Real parallel execution on the host. ---

const parallelSrc = `
func main() {
	var a []int = new [30000]int;
	for (var i int = 0; i < 30000; i++) {
		var acc int = 0;
		for (var k int = 0; k < 40; k++) { acc += (i * k + 7) % 13; }
		a[i] = acc;
	}
	var s int = 0;
	for (var i int = 0; i < 30000; i++) { s += a[i]; }
	print(s);
}
`

// BenchmarkParallelDoall measures actual goroutine execution of a
// DCA-parallelized loop at several worker counts.
func BenchmarkParallelDoall(b *testing.B) {
	prog, err := irbuild.Compile("par.mc", parallelSrc)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := instrument.Loop(prog, "main", 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parallel.RunLoop(inst, parallel.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterp measures raw execution throughput of a sandboxed run on
// the VM (the substrate cost every dynamic analysis pays).
func BenchmarkInterp(b *testing.B) {
	prog, err := irbuild.Compile("par.mc", parallelSrc)
	if err != nil {
		b.Fatal(err)
	}
	oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, nil)
	if !oc.OK() {
		b.Fatal(oc.Trap)
	}
	b.SetBytes(oc.Result.Steps) // steps per op, reported as "MB/s" = Msteps/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if oc := sandbox.Run(nil, prog, interp.Config{}, sandbox.Limits{}, nil); !oc.OK() {
			b.Fatal(oc.Trap)
		}
	}
}

// BenchmarkDependenceProfiling measures the trace-based profiler over the
// same program.
func BenchmarkDependenceProfiling(b *testing.B) {
	prog, err := irbuild.Compile("par.mc", parallelSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := depprof.Trace(prog, 0); err != nil {
			b.Fatal(err)
		}
	}
}
