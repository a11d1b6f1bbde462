package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dca/internal/bench"
	"dca/internal/cache"
	"dca/internal/core"
	"dca/internal/vm"
)

// benchFile is the machine-readable benchmark record. Both suite benchmarks
// write into it, so updates go through mergeBenchFile rather than a blind
// overwrite.
const benchFile = "BENCH_analysis.json"

// AnalysisBench is the parallel-engine benchmark record, merged into
// BENCH_analysis.json by BenchmarkSuiteAnalysis.
type AnalysisBench struct {
	GOMAXPROCS        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"num_cpu"`
	WorkersSequential int     `json:"workers_sequential"`
	WorkersParallel   int     `json:"workers_parallel"`
	SuiteSecondsSeq   float64 `json:"suite_seconds_sequential"`
	SuiteSecondsPar   float64 `json:"suite_seconds_parallel"`
	// Speedup is omitted when the parallel leg cannot actually run in
	// parallel (single-CPU host): a ratio of two sequential runs is noise,
	// not a speedup.
	Speedup           float64 `json:"speedup,omitempty"`
	AllocBytesSeq     uint64  `json:"alloc_bytes_sequential"`
	AllocBytesPar     uint64  `json:"alloc_bytes_parallel"`
	VerdictsIdentical bool    `json:"verdicts_identical"`
}

// CacheBench is the cold-vs-warm verdict-cache benchmark record, merged
// into BENCH_analysis.json under "cache" by BenchmarkSuiteCache.
type CacheBench struct {
	Workers          int     `json:"workers"`
	SuiteSecondsCold float64 `json:"suite_seconds_cold"`
	SuiteSecondsWarm float64 `json:"suite_seconds_warm"`
	ReplaysCold      int     `json:"replays_cold"`
	ReplaysWarm      int     `json:"replays_warm"`
	// ReplaySkipRate is the share of dynamic-stage executions the warm run
	// avoided: 1 - warm/cold.
	ReplaySkipRate  float64 `json:"replay_skip_rate"`
	CachedLoopsWarm int     `json:"cached_loops_warm"`
	TablesIdentical bool    `json:"tables_identical"`
	MemHits         uint64  `json:"cache_mem_hits"`
	Misses          uint64  `json:"cache_misses"`
}

// VMBench is the executor benchmark record, merged into BENCH_analysis.json
// under "vm" by BenchmarkSuiteVM: the cold suite on the bytecode VM versus
// the tree-walking interpreter, plus where the VM run's time went and how
// many replays the reducers skipped.
type VMBench struct {
	Workers          int     `json:"workers"`
	SuiteSecondsVM   float64 `json:"suite_seconds_vm"`
	SuiteSecondsNoVM float64 `json:"suite_seconds_no_vm"`
	SpeedupVsInterp  float64 `json:"speedup_vs_interp"`
	// Stage split of the VM run's DCA time (seconds).
	SecondsStatic float64 `json:"seconds_static"`
	SecondsGolden float64 `json:"seconds_golden"`
	SecondsReplay float64 `json:"seconds_replay"`
	// Replays skipped by the sequential stopping rule and the footprint
	// fast path during the VM run.
	SkippedStop      int  `json:"skipped_stop"`
	SkippedFootprint int  `json:"skipped_footprint"`
	ReplaysVM        int  `json:"replays_vm"`
	ReplaysNoVM      int  `json:"replays_no_vm"`
	TablesIdentical  bool `json:"tables_identical"`
}

// ProveBench is the static-prover benchmark record, merged into
// BENCH_analysis.json under "prove" by BenchmarkSuiteProve: the cold NPB
// suite with the prover on versus forced through the dynamic stage, the
// share of loops the prover decided, and the executions its proofs skipped.
type ProveBench struct {
	Workers             int     `json:"workers"`
	SuiteSecondsProve   float64 `json:"suite_seconds_prove"`
	SuiteSecondsNoProve float64 `json:"suite_seconds_no_prove"`
	// ProvedLoops / TotalLoops: how many suite loops the prover decided.
	ProvedLoops      int     `json:"proved_loops"`
	TotalLoops       int     `json:"total_loops"`
	StaticProvedRate float64 `json:"static_proved_rate"`
	// Replay delta: dynamic-stage executions with and without the prover;
	// SkippedProveRuns is the schedule-replay count the proofs made
	// unnecessary as accounted per proved loop (golden runs still execute
	// as each proved loop's coverage witness).
	ReplaysProve     int  `json:"replays_prove"`
	ReplaysNoProve   int  `json:"replays_no_prove"`
	SkippedProveRuns int  `json:"skipped_prove_runs"`
	TablesIdentical  bool `json:"tables_identical"`
}

// mergeBenchFile read-modify-writes update's top-level keys into the
// benchmark record, preserving keys written by the other benchmark. Keys in
// remove are deleted — omitempty fields would otherwise leave a stale value
// from an earlier run in place.
func mergeBenchFile(b *testing.B, update any, remove ...string) {
	b.Helper()
	merged := map[string]json.RawMessage{}
	if data, err := os.ReadFile(benchFile); err == nil {
		// A corrupt or legacy record is simply replaced.
		json.Unmarshal(data, &merged)
	}
	data, err := json.Marshal(update)
	if err != nil {
		b.Fatal(err)
	}
	var upd map[string]json.RawMessage
	if err := json.Unmarshal(data, &upd); err != nil {
		b.Fatal(err)
	}
	for k, v := range upd {
		merged[k] = v
	}
	for _, k := range remove {
		delete(merged, k)
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(benchFile, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

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
// produce byte-identical Tables I/III/IV and merges the measurement into
// BENCH_analysis.json (run via `go test -run=^$ -bench=SuiteAnalysis
// -benchtime=1x .`). The ≥3x speedup floor is asserted only on hosts with
// at least 4 CPUs; a single-CPU host records no speedup at all.
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
		rec := AnalysisBench{
			GOMAXPROCS:        runtime.GOMAXPROCS(0),
			NumCPU:            cpus,
			WorkersSequential: 1,
			WorkersParallel:   cpus,
			SuiteSecondsSeq:   seqDur.Seconds(),
			SuiteSecondsPar:   parDur.Seconds(),
			AllocBytesSeq:     seqAlloc,
			AllocBytesPar:     parAlloc,
			VerdictsIdentical: identical,
		}
		var stale []string
		if cpus > 1 {
			rec.Speedup = seqDur.Seconds() / parDur.Seconds()
		} else {
			stale = append(stale, "speedup")
		}
		mergeBenchFile(b, rec, stale...)
		fmt.Fprintf(os.Stderr, "suite: seq %.2fs, par(-j %d) %.2fs, speedup %.2fx\n",
			rec.SuiteSecondsSeq, cpus, rec.SuiteSecondsPar, rec.Speedup)
		if cpus >= 4 && rec.Speedup < 3 {
			b.Fatalf("suite speedup %.2fx below the 3x floor at -j %d", rec.Speedup, cpus)
		}
		if rec.Speedup > 0 {
			b.ReportMetric(rec.Speedup, "speedup")
		}
	}
}

// BenchmarkSuiteVM measures the executor win: the cold NPB suite (workers=1,
// no verdict cache) on the bytecode VM versus the same suite forced onto the
// tree-walking interpreter with vm.SetEnabled(false). The two must produce
// byte-identical Tables I/III/IV; the timing, the VM run's stage split, and
// the replay-reducer skip counters are merged into BENCH_analysis.json under
// "vm" (run via `go test -run=^$ -bench=SuiteVM -benchtime=1x .`).
func BenchmarkSuiteVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vmSuite, vmDur, _ := timedSuite(b, 1, nil)
		vm.SetEnabled(false)
		noSuite, noDur, _ := timedSuite(b, 1, nil)
		vm.SetEnabled(true)

		identical := vmSuite.TableI() == noSuite.TableI() &&
			vmSuite.TableIII() == noSuite.TableIII() &&
			vmSuite.TableIV() == noSuite.TableIV()
		if !identical {
			b.Fatalf("VM suite diverged from tree-walker:\nvm TableI:\n%s\nno-vm TableI:\n%s",
				vmSuite.TableI(), noSuite.TableI())
		}
		stop, fp := vmSuite.SkippedReplays()
		static, golden, replay := vmSuite.StageSeconds()
		rec := struct {
			VM VMBench `json:"vm"`
		}{VMBench{
			Workers:          1,
			SuiteSecondsVM:   vmDur.Seconds(),
			SuiteSecondsNoVM: noDur.Seconds(),
			SpeedupVsInterp:  noDur.Seconds() / vmDur.Seconds(),
			SecondsStatic:    static,
			SecondsGolden:    golden,
			SecondsReplay:    replay,
			SkippedStop:      stop,
			SkippedFootprint: fp,
			ReplaysVM:        vmSuite.Replays(),
			ReplaysNoVM:      noSuite.Replays(),
			TablesIdentical:  identical,
		}}
		mergeBenchFile(b, rec)
		fmt.Fprintf(os.Stderr, "vm: %.2fs vs interp %.2fs (%.2fx); stages static %.2fs golden %.2fs replay %.2fs; skipped stop %d footprint %d\n",
			vmDur.Seconds(), noDur.Seconds(), rec.VM.SpeedupVsInterp, static, golden, replay, stop, fp)
		b.ReportMetric(rec.VM.SpeedupVsInterp, "speedup-vs-interp")
	}
}

// BenchmarkSuiteProve measures the static-prover win: the cold NPB suite
// (workers=1, no verdict cache) with the prover on versus the same suite
// forced through the dynamic stage with -no-prove. The two must produce
// byte-identical Tables I/III/IV — a static proof may only remove work,
// never change a verdict — and the prover must decide a nonzero share of
// the suite's loops. The rate and the replay delta are merged into
// BENCH_analysis.json under "prove" (run via `go test -run=^$
// -bench=SuiteProve -benchtime=1x .`).
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
		rec := struct {
			Prove ProveBench `json:"prove"`
		}{ProveBench{
			Workers:             1,
			SuiteSecondsProve:   pvDur.Seconds(),
			SuiteSecondsNoProve: npDur.Seconds(),
			ProvedLoops:         proved,
			TotalLoops:          total,
			StaticProvedRate:    float64(proved) / float64(total),
			ReplaysProve:        pvSuite.Replays(),
			ReplaysNoProve:      npSuite.Replays(),
			SkippedProveRuns:    pvSuite.SkippedProveRuns(),
			TablesIdentical:     identical,
		}}
		mergeBenchFile(b, rec)
		fmt.Fprintf(os.Stderr, "prove: %.2fs vs no-prove %.2fs; proved %d/%d loops (%.0f%%), replays %d -> %d (skipped %d runs)\n",
			pvDur.Seconds(), npDur.Seconds(), proved, total, 100*rec.Prove.StaticProvedRate,
			npSuite.Replays(), pvSuite.Replays(), rec.Prove.SkippedProveRuns)
		b.ReportMetric(rec.Prove.StaticProvedRate, "static-proved-rate")
	}
}

// BenchmarkSuiteCache measures the incremental-analysis win: the full NPB
// suite cold (empty verdict cache) versus warm (every verdict cached). The
// warm run must reproduce the tables byte-for-byte while skipping at least
// 90% of the dynamic-stage replays; the skip rate and cache counters are
// merged into BENCH_analysis.json under "cache".
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
		rec := struct {
			Cache CacheBench `json:"cache"`
		}{CacheBench{
			Workers:          cpus,
			SuiteSecondsCold: coldDur.Seconds(),
			SuiteSecondsWarm: warmDur.Seconds(),
			ReplaysCold:      cold.Replays(),
			ReplaysWarm:      warm.Replays(),
			ReplaySkipRate:   skip,
			CachedLoopsWarm:  warm.CachedLoops(),
			TablesIdentical:  identical,
			MemHits:          st.MemHits,
			Misses:           st.Misses,
		}}
		mergeBenchFile(b, rec)
		fmt.Fprintf(os.Stderr, "cache: cold %.2fs, warm %.2fs, replay skip %.1f%% (%d -> %d)\n",
			coldDur.Seconds(), warmDur.Seconds(), skip*100, cold.Replays(), warm.Replays())
		b.ReportMetric(skip, "skip-rate")
	}
}
