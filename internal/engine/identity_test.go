package engine_test

import (
	"context"
	"fmt"
	"testing"

	"dca/internal/core"
	"dca/internal/engine"
	"dca/internal/fuzzgen"
	"dca/internal/ir"
	"dca/internal/irbuild"
)

// assertOracleVerdicts asserts two reports of one program agree loop by loop
// on everything the analysis concludes: verdict, reason, trap kind and the
// observed invocation and iteration counts. Provenance, skip counters and
// Replays record which path decided a loop, so they may differ.
func assertOracleVerdicts(t *testing.T, label string, def, oracle *core.Report) {
	t.Helper()
	if len(def.Loops) != len(oracle.Loops) {
		t.Fatalf("%s: loop counts differ: %d vs %d", label, len(def.Loops), len(oracle.Loops))
	}
	for i, a := range def.Loops {
		b := oracle.Loops[i]
		if a.ID != b.ID || a.Verdict != b.Verdict || a.Reason != b.Reason || a.TrapKind != b.TrapKind ||
			a.Invocations != b.Invocations || a.Iterations != b.Iterations {
			t.Errorf("%s: loop %s differs from the -no-footprint oracle:\n  default: %s %q trap=%q inv=%d it=%d (%s)\n  oracle:  %s %q trap=%q inv=%d it=%d (%s)",
				label, a.ID,
				a.Verdict, a.Reason, a.TrapKind, a.Invocations, a.Iterations, a.Provenance,
				b.Verdict, b.Reason, b.TrapKind, b.Invocations, b.Iterations, b.Provenance)
		}
	}
}

// TestReferenceEvidenceIdentity is the differential oracle for deciding
// loops from the reference run: every program is analyzed with the
// defaults and again with NoFootprint, which runs every loop's golden run
// instead, and the two reports must agree loop by loop. The programs are
// the identity-test workloads, the coverage-shape programs, the fuzz
// regression corpus and fuzzgen seeds 1–300 (1–60 under -short).
func TestReferenceEvidenceIdentity(t *testing.T) {
	progs := testPrograms(t)
	entries, err := fuzzgen.LoadDir("../fuzzgen/corpus")
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	compile := func(name, src string) {
		p, err := irbuild.Compile(name+".mc", src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		progs[name] = p
	}
	compile("prescreen", prescreenSrc)
	compile("zerotrip", zeroTripSrc)
	for _, e := range entries {
		compile("corpus/"+e.Kind+"-"+e.Fingerprint[:8], e.Source)
	}
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 1; seed <= seeds; seed++ {
		compile(fmt.Sprintf("fuzz/seed-%d", seed), fuzzgen.New(int64(seed)).Render())
	}

	analyze := func(prog *ir.Program, noFootprint bool) (*core.Report, error) {
		opt := testOptions()
		opt.NoFootprint = noFootprint
		return engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 1})
	}
	decided := 0
	for name, prog := range progs {
		// The two analyses share nothing; running them side by side halves
		// the wall time of the golden-run-bound programs.
		var oracle *core.Report
		var oerr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			oracle, oerr = analyze(prog, true)
		}()
		def, err := analyze(prog, false)
		<-done
		if (err == nil) != (oerr == nil) {
			t.Fatalf("%s: reference run outcome differs: default %v, oracle %v", name, err, oerr)
		}
		if err != nil {
			continue
		}
		assertOracleVerdicts(t, name, def, oracle)
		for _, l := range def.Loops {
			if l.Replays == 0 && (l.Verdict == core.Commutative || l.Verdict == core.NotExecuted) {
				decided++
			}
		}
	}
	if decided == 0 {
		t.Error("no loop was decided from the reference run")
	}
}
