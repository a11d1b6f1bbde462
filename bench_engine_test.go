package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dca/internal/bench"
	"dca/internal/cache"
	"dca/internal/core"
)

// withAllCPUs raises GOMAXPROCS to the machine's CPU count for the duration
// of fn, restoring it afterwards. CI benchmark runners sometimes launch the
// process with GOMAXPROCS=1; the parallel leg must still use the hardware.
func withAllCPUs(fn func()) {
	prev := runtime.GOMAXPROCS(0)
	if cpus := runtime.NumCPU(); cpus > prev {
		runtime.GOMAXPROCS(cpus)
		defer runtime.GOMAXPROCS(prev)
	}
	fn()
}

// timedSuite runs the full NPB suite at the given worker count against vc
// (nil = no cache), returning the suite, wall-clock, and heap bytes
// allocated during the run.
func timedSuite(b *testing.B, workers int, vc core.VerdictCache) (*bench.Suite, time.Duration, uint64) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	s, err := bench.RunSuiteOptions(workers, vc)
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		b.Fatal(err)
	}
	return s, dur, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkSuiteAnalysis measures the analysis engine's suite-level
// speedup: the full NPB run at -j 1 versus -j NumCPU, the parallel leg run
// with GOMAXPROCS raised to the hardware CPU count. It asserts the two
// produce byte-identical Tables I/III/IV (run via `go test -run=^$
// -bench=SuiteAnalysis -benchtime=1x .`). The ≥3x speedup floor is
// asserted only on hosts with at least 4 CPUs; a single-CPU host reports
// no speedup at all.
func BenchmarkSuiteAnalysis(b *testing.B) {
	cpus := runtime.NumCPU()
	for i := 0; i < b.N; i++ {
		seq, seqDur, seqAlloc := timedSuite(b, 1, nil)
		var par *bench.Suite
		var parDur time.Duration
		var parAlloc uint64
		withAllCPUs(func() {
			par, parDur, parAlloc = timedSuite(b, cpus, nil)
		})

		identical := seq.TableI() == par.TableI() &&
			seq.TableIII() == par.TableIII() &&
			seq.TableIV() == par.TableIV()
		if !identical {
			b.Fatalf("parallel suite diverged from sequential:\nseq TableI:\n%s\npar TableI:\n%s",
				seq.TableI(), par.TableI())
		}
		// A ratio of two sequential runs is noise, not a speedup, so a
		// single-CPU host reports none.
		var speedup float64
		if cpus > 1 {
			speedup = seqDur.Seconds() / parDur.Seconds()
		}
		fmt.Fprintf(os.Stderr, "suite: seq %.2fs (%d MB alloc), par(-j %d) %.2fs (%d MB alloc), speedup %.2fx\n",
			seqDur.Seconds(), seqAlloc>>20, cpus, parDur.Seconds(), parAlloc>>20, speedup)
		if cpus >= 4 && speedup < 3 {
			b.Fatalf("suite speedup %.2fx below the 3x floor at -j %d", speedup, cpus)
		}
		b.ReportMetric(seqDur.Seconds(), "seq-s")
		b.ReportMetric(parDur.Seconds(), "par-s")
		if speedup > 0 {
			b.ReportMetric(speedup, "speedup")
		}
	}
}

// BenchmarkSuiteProve measures the static-prover win: the cold NPB suite
// (workers=1, no verdict cache) with the prover on versus the same suite
// forced through the dynamic stage with -no-prove. The two must produce
// byte-identical Tables I/III/IV — a static proof may only remove work,
// never change a verdict — and the prover must decide a nonzero share of
// the suite's loops. The rate and the replay delta are reported (run via
// `go test -run=^$ -bench=SuiteProve -benchtime=1x .`).
func BenchmarkSuiteProve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pvSuite, pvDur, _ := timedSuite(b, 1, nil)
		start := time.Now()
		npSuite, err := bench.RunSuiteCore(1, core.Options{NoProve: true})
		npDur := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}

		identical := pvSuite.TableI() == npSuite.TableI() &&
			pvSuite.TableIII() == npSuite.TableIII() &&
			pvSuite.TableIV() == npSuite.TableIV()
		if !identical {
			b.Fatalf("prover suite diverged from dynamic-only:\nprove TableI:\n%s\nno-prove TableI:\n%s",
				pvSuite.TableI(), npSuite.TableI())
		}
		proved := pvSuite.ProvedLoops()
		if proved == 0 {
			b.Fatal("prover decided no loops across the whole NPB suite")
		}
		total := 0
		for _, r := range pvSuite.Results {
			total += len(r.DCA.Loops)
		}
		rate := float64(proved) / float64(total)
		fmt.Fprintf(os.Stderr, "prove: %.2fs vs no-prove %.2fs; proved %d/%d loops (%.0f%%), replays %d -> %d (skipped %d runs)\n",
			pvDur.Seconds(), npDur.Seconds(), proved, total, 100*rate,
			npSuite.Replays(), pvSuite.Replays(), pvSuite.SkippedProveRuns())
		b.ReportMetric(rate, "static-proved-rate")
	}
}

// BenchmarkSuiteCache measures the incremental-analysis win: the full NPB
// suite cold (empty verdict cache) versus warm (every verdict cached). The
// warm run must reproduce the tables byte-for-byte while skipping at least
// 90% of the dynamic-stage replays; the skip rate and cache counters are
// reported.
func BenchmarkSuiteCache(b *testing.B) {
	cpus := runtime.NumCPU()
	for i := 0; i < b.N; i++ {
		c, err := cache.Open("", 0, core.CacheRecordVersion)
		if err != nil {
			b.Fatal(err)
		}
		var cold, warm *bench.Suite
		var coldDur, warmDur time.Duration
		withAllCPUs(func() {
			cold, coldDur, _ = timedSuite(b, cpus, c)
			warm, warmDur, _ = timedSuite(b, cpus, c)
		})

		identical := cold.TableI() == warm.TableI() &&
			cold.TableIII() == warm.TableIII() &&
			cold.TableIV() == warm.TableIV()
		if !identical {
			b.Fatalf("warm suite diverged from cold:\ncold TableI:\n%s\nwarm TableI:\n%s",
				cold.TableI(), warm.TableI())
		}
		if cold.Replays() == 0 {
			b.Fatal("cold suite performed no replays")
		}
		skip := 1 - float64(warm.Replays())/float64(cold.Replays())
		if skip < 0.9 {
			b.Fatalf("warm suite skipped only %.0f%% of replays (%d -> %d), want >= 90%%",
				skip*100, cold.Replays(), warm.Replays())
		}
		st := c.Stats()
		fmt.Fprintf(os.Stderr, "cache: cold %.2fs, warm %.2fs at -j %d, replay skip %.1f%% (%d -> %d), %d loops cached, %d mem hits, %d misses\n",
			coldDur.Seconds(), warmDur.Seconds(), cpus, skip*100, cold.Replays(), warm.Replays(),
			warm.CachedLoops(), st.MemHits, st.Misses)
		b.ReportMetric(skip, "skip-rate")
	}
}
