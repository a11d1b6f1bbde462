// Command dca is the command-line front end to Dynamic Commutativity
// Analysis. It compiles a MiniC source file and reports, per loop, whether
// DCA finds it commutative — optionally alongside the five baseline
// detectors the paper compares against.
//
// Usage:
//
//	dca analyze [-baselines] [-schedules n] [-json] [-cache-dir d] file.mc
//	dca run file.mc
//	dca ir file.mc
//	dca parallel -fn name -loop k [-workers n] file.mc
//	dca fuzz -seed 1 -count 2000
//	dca serve -addr :8344 [-cache-dir d]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dca/internal/cache"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/engine"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/obs"
	"dca/internal/opt"
	"dca/internal/parallel"
	"dca/internal/parser"
	"dca/internal/polly"
	"dca/internal/printer"
	"dca/internal/sandbox"
	"dca/internal/server"
	"dca/internal/skeleton"
)

// Exit codes by failure category, so suite drivers can triage without
// parsing stderr.
const (
	exitOK       = 0
	exitErr      = 1 // generic error (compile failure, bad input, ...)
	exitUsage    = 2
	exitFault    = 3 // the program under test faulted
	exitBudget   = 4 // a resource budget (steps/heap/output) ran out
	exitTimeout  = 5 // wall-clock timeout or cancellation
	exitInternal = 6 // internal panic in the analysis
)

// exitCodeFor maps an error to its failure-category exit code.
func exitCodeFor(err error) int {
	if err == nil {
		return exitOK
	}
	var trap *sandbox.Trap
	if errors.As(err, &trap) {
		switch trap.Kind {
		case sandbox.Budget:
			return exitBudget
		case sandbox.Timeout:
			return exitTimeout
		case sandbox.Panic:
			return exitInternal
		default:
			return exitFault
		}
	}
	switch {
	case errors.Is(err, interp.ErrBudget):
		return exitBudget
	case errors.Is(err, interp.ErrCancelled), errors.Is(err, context.Canceled):
		return exitTimeout
	}
	return exitErr
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "analyze":
		err = cmdAnalyze(args)
	case "run":
		err = cmdRun(args)
	case "ir":
		err = cmdIR(args)
	case "parallel":
		err = cmdParallel(args)
	case "fuzz":
		err = cmdFuzz(args)
	case "serve":
		err = cmdServe(args)
	case "skeletons":
		err = cmdSkeletons(args)
	case "contexts":
		err = cmdContexts(args)
	case "fmt":
		err = cmdFmt(args)
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(exitUsage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dca:", err)
		os.Exit(exitCodeFor(err))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `dca — Dynamic Commutativity Analysis for MiniC programs

commands:
  analyze [-j n] [-baselines] [-schedules n] [-timeout d] [-max-steps n]
          [-retry n] [-debug-snapshots] [-json]
          [-stop-after n] [-no-footprint] [-no-prove]
          [-trace out.jsonl] [-cache-dir d] [-cache-mem bytes]
          [-inject-kind k -inject-at-step n|-inject-at-intrinsic n
           -inject-fn f -inject-loop k] file.mc  run DCA on every loop
  serve [-addr host:port] [-j n] [-max-concurrent n] [-max-queue n]
        [-queue-timeout d] [-cache-dir d] [-cache-mem bytes] [-no-cache]
        [-schedules n] [-timeout d] [-max-steps n] [-retry n]
        [-max-source-bytes n] [-drain-timeout d]
        [-trace out.jsonl]                       run the analysis service
                                                 (metrics at GET /metrics)
  run [-opt] [-timeout d] [-max-steps n] file.mc
                                                 execute the program
  ir [-opt] file.mc                              print the IR
  parallel -fn f -loop k [-workers n] [-timeout d] [-max-steps n] file.mc
                                                 run one loop in parallel
  fuzz [-seed n] [-count n] [-j n] [-wall d] [-schedules n] [-timeout d]
       [-max-steps n] [-corpus d] [-par-workers list] [-no-baselines]
       [-bench-out f.json] [-v]                  differential fuzzing campaign
                                                 over generated loop nests
  skeletons file.mc                              classify commutative loops
  contexts -fn f -loop k file.mc                 per-calling-context verdicts
  fmt file.mc                                    print canonical source

exit codes: 0 ok, 1 error, 2 usage, 3 program fault, 4 budget exhausted,
            5 timeout, 6 internal panic`)
}

func compile(path string) (*ir.Program, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return irbuild.Compile(path, string(text))
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	baselines := fs.Bool("baselines", false, "also run the five baseline detectors")
	jsonOut := fs.Bool("json", false, "emit the verdict report as JSON")
	cacheDir := fs.String("cache-dir", "", "persistent verdict-cache directory (empty = no cache)")
	cacheMem := fs.Int64("cache-mem", 0, "verdict-cache memory budget in bytes (0 = default)")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "concurrent analysis workers (1 = sequential)")
	schedules := fs.Int("schedules", 3, "number of random permutation schedules (plus reverse)")
	tracePath := fs.String("trace", "", "append per-loop trace events to this JSONL file")
	debugSnapshots := fs.Bool("debug-snapshots", false, "keep string snapshots alongside digests for mismatch diagnosis")
	stopAfter := fs.Int("stop-after", 0, "stop replaying after this many consecutive agreeing schedules (0 = test all)")
	noFootprint := fs.Bool("no-footprint", false, "decide no loop from the reference run (every analyzed loop runs its golden run)")
	noProve := fs.Bool("no-prove", false, "disable the static commutativity prover (no verdict comes from a static proof)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit per execution (0 = none)")
	maxSteps := fs.Int64("max-steps", 0, "instruction budget per execution (0 = default 200M)")
	retry := fs.Int("retry", 1, "doubled-budget retries for budget/timeout traps (negative disables)")
	injectKind := fs.String("inject-kind", "", "fault injection: trap kind to trip (fault|budget|panic)")
	injectStep := fs.Int64("inject-at-step", 0, "fault injection: trip at the Nth step (instruction or block terminator) of a run")
	injectIntr := fs.Int64("inject-at-intrinsic", 0, "fault injection: trip at the Nth rt_* intrinsic call of a run")
	injectFn := fs.String("inject-fn", "", "fault injection: restrict to this function's loop (with -inject-loop)")
	injectLoop := fs.Int("inject-loop", 0, "fault injection: loop index within -inject-fn")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze: need exactly one source file")
	}
	if *jsonOut && *baselines {
		return fmt.Errorf("analyze: -json and -baselines are mutually exclusive")
	}
	prog, err := compile(fs.Arg(0))
	if err != nil {
		return err
	}
	scheds := []dcart.Schedule{dcart.Reverse{}}
	for i := 0; i < *schedules; i++ {
		scheds = append(scheds, dcart.Random{Seed: int64(i + 1)})
	}
	opts := core.Options{
		Schedules:      scheds,
		MaxSteps:       *maxSteps,
		Timeout:        *timeout,
		Retries:        *retry,
		InjectFn:       *injectFn,
		InjectLoop:     *injectLoop,
		DebugSnapshots: *debugSnapshots,
		StopAfter:      *stopAfter,
		NoFootprint:    *noFootprint,
		NoProve:        *noProve,
	}
	if *injectKind != "" {
		kind, err := parseInjectKind(*injectKind)
		if err != nil {
			return err
		}
		opts.Inject = sandbox.Inject{Kind: kind, AtStep: *injectStep, AtIntrinsic: *injectIntr}
		if opts.Inject.AtStep == 0 && opts.Inject.AtIntrinsic == 0 {
			return fmt.Errorf("analyze: -inject-kind needs -inject-at-step or -inject-at-intrinsic")
		}
	}
	// The cache only pays off across invocations, so it is tied to a
	// persistent directory. Each loop's record reaches the disk as the loop
	// finishes, so a rerun of a killed analysis skips its finished loops.
	var diskCache *cache.Cache
	if *cacheDir != "" {
		c, err := cache.Open(*cacheDir, *cacheMem, core.CacheRecordVersion)
		if err != nil {
			return fmt.Errorf("analyze: open cache: %w", err)
		}
		opts.Cache = c
		diskCache = c
	}
	var traceSink *obs.JSONL
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("analyze: open trace file: %w", err)
		}
		defer f.Close()
		traceSink = obs.NewJSONL(f)
		opts.Trace = traceSink
		if diskCache != nil {
			// Disk faults in the verdict cache surface in the same trace.
			diskCache.SetTrace(traceSink)
		}
	}
	// The analysis is scoped to the process signals: Ctrl-C stops replays
	// promptly instead of waiting out their budgets.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	// The program executes uninstrumented once: DCA's reference run also
	// builds the dependence profile -baselines reads.
	ref, err := core.RunReference(ctx, prog, opts, *baselines)
	if err != nil {
		return err
	}
	rep := engine.AnalyzeReference(ctx, prog, ref, engine.Options{Core: opts, Workers: *jobs})
	if traceSink != nil {
		if terr := traceSink.Err(); terr != nil {
			return fmt.Errorf("analyze: write trace: %w", terr)
		}
	}
	if *jsonOut {
		data, err := rep.MarshalIndentJSON(time.Since(start))
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return ctx.Err()
	}
	fmt.Println("== DCA ==")
	fmt.Print(rep)
	fmt.Printf("commutative: %d of %d loops\n", rep.Count(core.Commutative), len(rep.Loops))
	if n := rep.Count(core.ResourceExhausted); n > 0 {
		fmt.Printf("resource-exhausted: %d loops (raise -max-steps/-timeout or -retry)\n", n)
	}
	if n := rep.Count(core.Failed); n > 0 {
		fmt.Printf("failed: %d loops\n", n)
	}
	if n := rep.Count(core.Cancelled); n > 0 {
		fmt.Printf("cancelled: %d loops (analysis interrupted)\n", n)
	}
	// An interrupted analysis still prints its partial report, but the
	// process must exit 5 (cancelled), not 0 — partial verdicts are not a
	// completed run.
	if err := ctx.Err(); err != nil {
		return err
	}
	if !*baselines {
		return nil
	}
	// One dependence profile serves both dependence profilers.
	dp := depprof.AnalyzeProfile(prog, ref.Profile, depprof.DefaultPolicy())
	fmt.Println("\n== Dependence Profiling ==")
	fmt.Print(dp)
	dpp := discopop.AnalyzeProfile(prog, ref.Profile)
	fmt.Println("\n== DiscoPoP ==")
	fmt.Print(dpp)
	fmt.Println("\n== Idioms ==")
	id := idioms.Analyze(prog)
	printStatic(rep, func(fn string, idx int) (bool, []string) {
		v := id.Verdict(fn, idx)
		if v == nil {
			return false, nil
		}
		return v.Parallel, v.Reasons
	})
	fmt.Println("\n== Polly ==")
	fmt.Print(polly.Analyze(prog))
	fmt.Println("\n== ICC ==")
	ic := icc.Analyze(prog)
	printStatic(rep, func(fn string, idx int) (bool, []string) {
		v := ic.Verdict(fn, idx)
		if v == nil {
			return false, nil
		}
		return v.Parallel, v.Reasons
	})
	return nil
}

// printStatic prints a static detector's verdict on every loop of rep.
func printStatic(rep *core.Report, verdict func(fn string, idx int) (bool, []string)) {
	for _, l := range rep.Loops {
		ok, reasons := verdict(l.Fn, l.Index)
		status := "serial"
		if ok {
			status = "parallel"
		}
		if len(reasons) > 0 {
			fmt.Printf("%s/L%d: %s (%s)\n", l.Fn, l.Index, status, reasons[0])
		} else {
			fmt.Printf("%s/L%d: %s\n", l.Fn, l.Index, status)
		}
	}
}

// parseInjectKind maps a -inject-kind flag value to a sandbox trap kind.
func parseInjectKind(s string) (sandbox.Kind, error) {
	switch s {
	case "fault":
		return sandbox.Fault, nil
	case "budget":
		return sandbox.Budget, nil
	case "panic":
		return sandbox.Panic, nil
	}
	return sandbox.None, fmt.Errorf("unknown inject kind %q (want fault|budget|panic)", s)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "engine workers shared by all requests")
	maxConc := fs.Int("max-concurrent", 0, "concurrent /analyze requests (0 = workers)")
	cacheDir := fs.String("cache-dir", "", "persistent verdict-cache directory (empty = memory-only)")
	cacheMem := fs.Int64("cache-mem", 0, "verdict-cache memory budget in bytes (0 = default)")
	noCache := fs.Bool("no-cache", false, "disable the verdict cache")
	schedules := fs.Int("schedules", 3, "number of random permutation schedules (plus reverse)")
	timeout := fs.Duration("timeout", 30*time.Second, "wall-clock ceiling per execution")
	maxSteps := fs.Int64("max-steps", 0, "instruction budget per execution (0 = default 200M)")
	retry := fs.Int("retry", 1, "doubled-budget retries for budget/timeout traps (negative disables)")
	maxSource := fs.Int64("max-source-bytes", 1<<20, "request body size cap")
	maxQueue := fs.Int("max-queue", 0, "waiting /analyze requests before shedding (0 = 4x max-concurrent)")
	queueTimeout := fs.Duration("queue-timeout", 0, "max wait for an analysis slot before shedding (0 = 10s)")
	drain := fs.Duration("drain-timeout", 15*time.Second, "in-flight drain window on shutdown")
	tracePath := fs.String("trace", "", "append per-loop trace events to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %q", fs.Args())
	}
	cfg := server.Config{
		Workers:        *jobs,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		MaxSourceBytes: *maxSource,
		MaxSteps:       *maxSteps,
		Timeout:        *timeout,
		Retries:        *retry,
		Schedules:      *schedules,
		DrainTimeout:   *drain,
	}
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: open trace file: %w", err)
		}
		defer f.Close()
		cfg.Trace = obs.NewJSONL(f)
	}
	if !*noCache {
		// Unlike one-shot analyze, the daemon benefits from a memory-only
		// cache too: it lives as long as the process.
		c, err := cache.Open(*cacheDir, *cacheMem, core.CacheRecordVersion)
		if err != nil {
			return fmt.Errorf("serve: open cache: %w", err)
		}
		cfg.Cache = c
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "dca serve: listening on %s (%d workers)\n", *addr, *jobs)
	if err := server.New(cfg).ListenAndServe(ctx, *addr); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintln(os.Stderr, "dca serve: drained, bye")
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	optimize := fs.Bool("opt", false, "optimize the IR before executing")
	timeout := fs.Duration("timeout", 0, "wall-clock limit (0 = none)")
	maxSteps := fs.Int64("max-steps", 0, "instruction budget (0 = interpreter default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need exactly one source file")
	}
	prog, err := compile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *optimize {
		stats := opt.Program(prog)
		fmt.Fprintf(os.Stderr, "(opt: %d rewrites)\n", stats.Total())
	}
	oc := sandbox.Run(nil, prog, interp.Config{Out: os.Stdout},
		sandbox.Limits{MaxSteps: *maxSteps, Timeout: *timeout}, nil)
	if !oc.OK() {
		return oc.Trap
	}
	fmt.Fprintf(os.Stderr, "(%d steps)\n", oc.Result.Steps)
	return nil
}

func cmdIR(args []string) error {
	fs := flag.NewFlagSet("ir", flag.ExitOnError)
	optimize := fs.Bool("opt", false, "optimize the IR before printing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("ir: need exactly one source file")
	}
	prog, err := compile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *optimize {
		opt.Program(prog)
	}
	fmt.Print(prog)
	return nil
}

func cmdSkeletons(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("skeletons: need exactly one source file")
	}
	prog, err := compile(args[0])
	if err != nil {
		return err
	}
	rep, err := core.Analyze(prog, core.Options{})
	if err != nil {
		return err
	}
	for _, l := range rep.Loops {
		if !l.Verdict.IsParallelizable() {
			continue
		}
		inst, err := instrument.Loop(prog, l.Fn, l.Index)
		if err != nil {
			continue
		}
		info := skeleton.Classify(inst)
		fmt.Printf("%-40s %-12s accumulators=%v heapWrites=%d allocates=%v\n",
			l.ID, info.Kind, info.Accumulators, info.HeapWrites, info.Allocates)
	}
	return nil
}

func cmdFmt(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("fmt: need exactly one source file")
	}
	text, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	prog, err := parser.Parse(args[0], string(text))
	if err != nil {
		return err
	}
	fmt.Print(printer.Print(prog))
	return nil
}

func cmdContexts(args []string) error {
	fs := flag.NewFlagSet("contexts", flag.ExitOnError)
	fn := fs.String("fn", "main", "function containing the loop")
	loop := fs.Int("loop", 0, "loop index within the function")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("contexts: need exactly one source file")
	}
	prog, err := compile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := core.AnalyzeLoopContexts(prog, *fn, *loop, core.Options{})
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return nil
}

func cmdParallel(args []string) error {
	fs := flag.NewFlagSet("parallel", flag.ExitOnError)
	fn := fs.String("fn", "main", "function containing the loop")
	loop := fs.Int("loop", 0, "loop index within the function")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the whole run (0 = none)")
	maxSteps := fs.Int64("max-steps", 0, "instruction budget per worker (0 = interpreter default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("parallel: need exactly one source file")
	}
	prog, err := compile(fs.Arg(0))
	if err != nil {
		return err
	}
	inst, err := instrument.Loop(prog, *fn, *loop)
	if err != nil {
		return err
	}
	res, err := parallel.RunLoop(inst, parallel.Options{Workers: *workers, Out: os.Stdout, Timeout: *timeout, MaxSteps: *maxSteps})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "(%d invocations, %d iterations over %d workers)\n",
		res.Invocations, res.Iterations, res.Workers)
	return nil
}
