package diff

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dca/internal/core"
	"dca/internal/fuzzgen"
	"dca/internal/irbuild"
	"dca/internal/obs"
)

// TestCampaignHealthy runs a small real campaign end to end — generator,
// DCA, parallel oracle, all five baselines, corpus plumbing — and demands
// zero hard violations: no soundness bug, no mislabeled production, no
// parallel-vs-sequential divergence.
func TestCampaignHealthy(t *testing.T) {
	var log strings.Builder
	stats, failures, err := RunCampaign(nil, CampaignOptions{
		Seed:      1,
		Count:     40,
		Jobs:      4,
		Check:     Options{Baselines: true},
		CorpusDir: t.TempDir(),
		Log:       &log,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if n := stats.ViolationCount(); n != 0 {
		t.Fatalf("campaign found %d violations (want 0):\n%s", n, log.String())
	}
	if len(failures) != 0 {
		t.Fatalf("campaign returned %d failures with zero violation count", len(failures))
	}
	if got := stats.Completed + stats.Trapped; got != stats.Requested {
		t.Errorf("completed %d + trapped %d != requested %d", stats.Completed, stats.Trapped, stats.Requested)
	}
	if stats.Completed == 0 {
		t.Fatal("no program completed analysis")
	}
	if stats.Verdicts[core.Commutative.String()] == 0 {
		t.Error("no loop was ever found commutative")
	}
	if stats.Labels[fuzzgen.LabelNonCommutative.String()] == 0 {
		t.Error("no non-commutative production was generated — soundness check never exercised")
	}
	// Every definitive verdict on a labeled loop must agree with the label.
	for lv, n := range stats.LabelVerdicts {
		parts := strings.SplitN(lv, "/", 2)
		if parts[0] == fuzzgen.LabelNonCommutative.String() && parts[1] == core.Commutative.String() && n > 0 {
			t.Errorf("confusion cell %s = %d", lv, n)
		}
	}
	if stats.ParallelChecked == 0 {
		t.Error("parallel oracle never ran to completion on any loop")
	}
	if stats.ProvedLoops == 0 {
		t.Error("static prover never decided a loop — prover-divergence check never exercised")
	}
	for _, name := range BaselineNames {
		if stats.Baselines[name] == nil {
			t.Errorf("baseline %s produced no stats", name)
		}
	}
	if !strings.Contains(log.String(), "campaign seed=1") {
		t.Error("campaign header does not print the seed")
	}
}

// TestCampaignDeterministic: identical options → identical aggregate
// counts, regardless of worker interleaving.
func TestCampaignDeterministic(t *testing.T) {
	run := func() *Stats {
		s, _, err := RunCampaign(nil, CampaignOptions{Seed: 7, Count: 12, Jobs: 3})
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		s.Seconds, s.ProgramsPerSec = 0, 0
		return s
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("campaign stats differ across identical runs:\n%+v\n%+v", a, b)
	}
}

// TestCheckTrapSkips: a program that blows its budget is counted as a
// trap and produces no violations — trapping programs degrade gracefully.
func TestCheckTrapSkips(t *testing.T) {
	res := Check(fuzzgen.New(3), Options{MaxSteps: 50, Timeout: time.Second})
	if !res.Trapped {
		t.Fatal("expected a budget trap with MaxSteps=50")
	}
	if res.TrapKind == "" {
		t.Error("trap kind not classified")
	}
	if len(res.Violations) != 0 {
		t.Errorf("trapped program reported %d violations", len(res.Violations))
	}
}

// TestCampaignWallCap: an already-expired wall clock stops dispatch
// immediately and is reported, not an error.
func TestCampaignWallCap(t *testing.T) {
	stats, _, err := RunCampaign(nil, CampaignOptions{Seed: 1, Count: 500, Jobs: 2, Wall: time.Nanosecond})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !stats.WallCapped {
		t.Error("wall cap not reported")
	}
	if done := stats.Completed + stats.Trapped; done >= stats.Requested {
		t.Errorf("wall cap did not stop dispatch: %d of %d ran", done, stats.Requested)
	}
}

// TestMergeStatsCountsViolations: the aggregate classifies each violation
// kind into its own hard-failure counter.
func TestMergeStatsCountsViolations(t *testing.T) {
	s := &Stats{TrapKinds: map[string]int{}, Verdicts: map[string]int{},
		Labels: map[string]int{}, LabelVerdicts: map[string]int{}, Baselines: map[string]*BaselineStat{}}
	mergeStats(s, &Result{Violations: []Violation{
		{Kind: KindSoundness}, {Kind: KindLabel}, {Kind: KindParallelDiv}, {Kind: KindSoundness},
		{Kind: KindProverDiv},
	}})
	if s.SoundnessViolations != 2 || s.LabelViolations != 1 || s.ParallelDivergences != 1 || s.ProverDivergences != 1 {
		t.Errorf("got soundness=%d label=%d pardiv=%d provdiv=%d",
			s.SoundnessViolations, s.LabelViolations, s.ParallelDivergences, s.ProverDivergences)
	}
	if s.ViolationCount() != 5 {
		t.Errorf("ViolationCount = %d, want 5", s.ViolationCount())
	}
}

// TestHandleFailurePlumbing drives the minimize→fingerprint→corpus path
// with a fabricated violation on a real labeled loop: the repro line names
// the seed, the corpus receives exactly one entry, and an isomorphic
// second failure deduplicates against it.
func TestHandleFailurePlumbing(t *testing.T) {
	seed := int64(11)
	p := fuzzgen.New(seed)
	var fn string
	for name := range p.Labels() {
		fn = name
		break
	}
	if fn == "" {
		t.Fatal("seed 11 generated no labeled loops")
	}
	v := Violation{Kind: KindSoundness, Fn: fn, Label: fuzzgen.LabelNonCommutative, Verdict: "commutative"}
	dir := t.TempDir()
	var log strings.Builder
	logf := func(format string, args ...any) {
		log.WriteString(strings.TrimSpace(strings.ReplaceAll(format, "%", "")) + "\n")
		_ = args
	}
	opt := CampaignOptions{Seed: 1, CorpusDir: dir, MinimizeChecks: 3, Check: Options{}}
	f := handleFailure(seed, v, opt, logf)
	if f.Repro != "dca fuzz -seed 11 -count 1" {
		t.Errorf("repro line = %q", f.Repro)
	}
	if f.Minimized == nil || f.Source == "" {
		t.Fatal("failure carries no minimized program")
	}
	if f.CorpusPath == "" {
		t.Fatal("corpus entry not written")
	}
	entries, err := fuzzgen.LoadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("corpus entries = %d (err %v), want 1", len(entries), err)
	}
	if entries[0].Kind != KindSoundness || entries[0].Seed != seed || entries[0].Repro != f.Repro {
		t.Errorf("corpus entry mismatch: %+v", entries[0])
	}
	f2 := handleFailure(seed, v, opt, logf)
	if !f2.Deduped {
		t.Error("isomorphic second failure was not deduplicated")
	}
}

// TestLoopFingerprintStable: the dedup key is a pure function of the
// program text and loop identity.
func TestLoopFingerprintStable(t *testing.T) {
	p := fuzzgen.New(5)
	src := p.Render()
	var fn string
	for name := range p.Labels() {
		fn = name
		break
	}
	a, err := LoopFingerprint(src, fn, 0)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	b, _ := LoopFingerprint(src, fn, 0)
	if a != b || a == "" {
		t.Errorf("fingerprint unstable or empty: %q vs %q", a, b)
	}
}

// TestProvedRecheckMatchesWholeProgram: cross-check 4 re-analyzes only the
// proved loops, with the prover disabled. Over fuzzgen seeds 1-300, each of
// those per-loop results equals the loop's result in a whole-program
// analysis with the prover disabled.
func TestProvedRecheckMatchesWholeProgram(t *testing.T) {
	opt := Options{}.normalized()
	copt := core.Options{Schedules: opt.Schedules, MaxSteps: opt.MaxSteps, Timeout: opt.Timeout}
	noProve := copt
	noProve.NoProve = true
	checked := 0
	for seed := int64(1); seed <= 300; seed++ {
		prog, err := irbuild.Compile("fuzz.mc", fuzzgen.New(seed).Render())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := core.Analyze(prog, copt)
		if err != nil {
			continue // the program traps; Check skips it as well
		}
		var proved []LoopOutcome
		for _, lr := range rep.Loops {
			if lr.Provenance == core.ProvenanceProved {
				proved = append(proved, LoopOutcome{Fn: lr.Fn, Index: lr.Index})
			}
		}
		if len(proved) == 0 {
			continue
		}
		whole, err := core.Analyze(prog, noProve)
		if err != nil {
			t.Fatalf("seed %d: whole-program analysis: %v", seed, err)
		}
		ref, err := core.RunReference(nil, prog, noProve, false)
		if err != nil {
			t.Fatalf("seed %d: reference run: %v", seed, err)
		}
		got := analyzeLoops(prog, ref, noProve.Normalized(), proved)
		for _, g := range got {
			w := whole.Result(g.Fn, g.Index)
			if w == nil || g.ID != w.ID || g.Verdict != w.Verdict || g.Reason != w.Reason ||
				g.Provenance != w.Provenance || g.TrapKind != w.TrapKind ||
				g.Invocations != w.Invocations || g.Iterations != w.Iterations {
				t.Errorf("seed %d loop %s: per-loop %s %q (%s), whole program %+v", seed, g.ID, g.Verdict, g.Reason, g.Provenance, w)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("compared %d proved loops, want at least 100", checked)
	}
	t.Logf("%d proved loops compared", checked)
}

// TestCheckOneReferenceRun: Check executes each program uninstrumented
// once, outside its interp-vs-vm differential: one reference run serves
// the parallel oracle's expected output, DCA, the prover re-check and the
// baselines' dependence profile.
func TestCheckOneReferenceRun(t *testing.T) {
	rechecked := false
	for seed := int64(1); seed <= 20; seed++ {
		var sink obs.Collector
		res := check(fuzzgen.New(seed), Options{Baselines: true}, &sink)
		if res.Trapped {
			continue
		}
		refs := 0
		for _, ev := range sink.Events() {
			if ev.Stage == obs.StageReference {
				refs++
			}
		}
		if refs != 1 {
			t.Errorf("seed %d: %d reference runs, want 1", seed, refs)
		}
		for _, l := range res.Loops {
			rechecked = rechecked || l.Proved
			if l.Labeled && l.Baselines == nil {
				t.Errorf("seed %d: loop %s/%d has no baseline claims", seed, l.Fn, l.Index)
			}
		}
	}
	if !rechecked {
		t.Error("no proved loop: the prover re-check never shared the run")
	}
}
