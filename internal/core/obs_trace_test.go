package core_test

import (
	"context"
	"sync"
	"testing"

	"dca/internal/core"
	"dca/internal/engine"
	"dca/internal/irbuild"
	"dca/internal/obs"
	"dca/internal/sandbox"
)

// mapCache is a minimal VerdictCache for trace tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapCache() *mapCache { return &mapCache{m: map[string][]byte{}} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = val
}

// loopEvents groups a collector's events by loop ID, preserving order.
func loopEvents(events []obs.Event) map[string][]obs.Event {
	byLoop := map[string][]obs.Event{}
	for _, ev := range events {
		byLoop[ev.LoopID] = append(byLoop[ev.LoopID], ev)
	}
	return byLoop
}

// TestTraceEventLifecycle: one analysis (prover off and no decisions from
// the reference run, so the dynamic stage runs) emits a reference event
// and, per loop, static → cache miss → golden → one replay per schedule →
// verdict, in that order, with the verdict events agreeing with the report.
func TestTraceEventLifecycle(t *testing.T) {
	prog, err := irbuild.Compile("trace.mc", `
func main() {
	var a []int = new [8]int;
	for (var i int = 0; i < 8; i++) {
		a[i] = i * 2;
	}
	var s int = 0;
	for (var i int = 0; i < 8; i++) {
		s = s + a[i];
	}
	print(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	rep, err := core.Analyze(prog, core.Options{Trace: col, Cache: newMapCache(), NoProve: true, NoFootprint: true})
	if err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	if len(events) == 0 || events[0].Stage != obs.StageReference || events[0].Outcome != obs.OutcomeOK {
		t.Fatalf("first event must be an ok reference run, got %+v", events[:1])
	}

	byLoop := loopEvents(events[1:])
	for _, lr := range rep.Loops {
		evs := byLoop[lr.ID]
		stages := make([]string, len(evs))
		for i, ev := range evs {
			stages[i] = ev.Stage
		}
		// static, cache miss, golden, one replay per schedule, verdict.
		wantLen := 4 + lr.SchedulesTested
		if len(evs) != wantLen {
			t.Fatalf("loop %s: %d events %v, want %d", lr.ID, len(evs), stages, wantLen)
		}
		if evs[0].Stage != obs.StageStatic {
			t.Errorf("loop %s: first event %q, want static", lr.ID, evs[0].Stage)
		}
		if evs[1].Stage != obs.StageCache || evs[1].Outcome != obs.OutcomeMiss {
			t.Errorf("loop %s: second event %+v, want cache miss", lr.ID, evs[1])
		}
		if evs[2].Stage != obs.StageGolden || evs[2].DurationMS <= 0 {
			t.Errorf("loop %s: third event %+v, want timed golden run", lr.ID, evs[2])
		}
		for i := 0; i < lr.SchedulesTested; i++ {
			ev := evs[3+i]
			if ev.Stage != obs.StageReplay || ev.Schedule == "" {
				t.Errorf("loop %s: event %d = %+v, want named replay", lr.ID, 3+i, ev)
			}
		}
		last := evs[len(evs)-1]
		if last.Stage != obs.StageVerdict || last.Verdict != lr.Verdict.String() || last.Provenance != lr.Provenance {
			t.Errorf("loop %s: verdict event %+v disagrees with report verdict %s (%s)", lr.ID, last, lr.Verdict, lr.Provenance)
		}
	}
}

// TestTraceCacheHit: a warm second analysis emits cache-hit events and
// cached-provenance verdicts with no golden or replay executions.
func TestTraceCacheHit(t *testing.T) {
	prog, err := irbuild.Compile("trace.mc", `
func main() {
	var s int = 0;
	for (var i int = 0; i < 8; i++) {
		s = s + i;
	}
	print(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	vc := newMapCache()
	if _, err := core.Analyze(prog, core.Options{Cache: vc}); err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	rep, err := core.Analyze(prog, core.Options{Trace: col, Cache: vc})
	if err != nil {
		t.Fatal(err)
	}
	var hits, runs int
	for _, ev := range col.Events() {
		switch ev.Stage {
		case obs.StageCache:
			if ev.Outcome == obs.OutcomeHit {
				hits++
			}
		case obs.StageGolden, obs.StageReplay:
			runs++
		case obs.StageVerdict:
			if ev.Provenance != core.ProvenanceCached {
				t.Errorf("warm verdict event provenance %q, want cached", ev.Provenance)
			}
		}
	}
	if hits != len(rep.Loops) {
		t.Errorf("cache hit events = %d, want %d", hits, len(rep.Loops))
	}
	if runs != 0 {
		t.Errorf("warm analysis emitted %d golden/replay events, want 0", runs)
	}
}

// TestTraceProvedLifecycle: a loop the static commutativity prover decides
// emits static → cache miss → prove(proved, argument in Reason) → verdict,
// with no instrumented execution at all — the reference run is the
// coverage witness and supplies the invocation and iteration counts — and
// the verdict carries static-proved provenance. A second run serves the
// proved record from the cache.
func TestTraceProvedLifecycle(t *testing.T) {
	prog, err := irbuild.Compile("trace.mc", `
func main() {
	var a []int = new [8]int;
	for (var i int = 0; i < 8; i++) {
		a[i] = i * 2;
	}
	print(a[0]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	vc := newMapCache()
	col := &obs.Collector{}
	rep, err := core.Analyze(prog, core.Options{Trace: col, Cache: vc})
	if err != nil {
		t.Fatal(err)
	}
	lr := rep.Loops[0]
	if lr.Verdict != core.Commutative || lr.Provenance != core.ProvenanceProved {
		t.Fatalf("verdict %s (%s), want commutative static-proved", lr.Verdict, lr.Provenance)
	}
	if lr.Replays != 0 || lr.SkippedProve == 0 {
		t.Errorf("proved loop ran %d executions, skipped %d, want none and >0 skipped replays", lr.Replays, lr.SkippedProve)
	}
	if lr.Invocations != 1 || lr.Iterations != 8 {
		t.Errorf("proved loop invocations/iterations = %d/%d, want the reference run's 1/8", lr.Invocations, lr.Iterations)
	}
	evs := loopEvents(col.Events()[1:])[lr.ID]
	stages := make([]string, len(evs))
	for i, ev := range evs {
		stages[i] = ev.Stage
	}
	want := []string{obs.StageStatic, obs.StageCache, obs.StageProve, obs.StageVerdict}
	if len(stages) != len(want) {
		t.Fatalf("proved loop events %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("proved loop events %v, want %v", stages, want)
		}
	}
	if evs[2].Outcome != obs.OutcomeProved || evs[2].Reason == "" {
		t.Errorf("prove event %+v, want proved outcome with an argument name", evs[2])
	}

	// Warm run: the proved record is served from the cache, preserving the
	// skipped-execution count.
	rep2, err := core.Analyze(prog, core.Options{Cache: vc})
	if err != nil {
		t.Fatal(err)
	}
	lr2 := rep2.Loops[0]
	if lr2.Provenance != core.ProvenanceCached || lr2.Verdict != core.Commutative {
		t.Errorf("warm verdict %s (%s), want cached commutative", lr2.Verdict, lr2.Provenance)
	}
	if lr2.SkippedProve != lr.SkippedProve {
		t.Errorf("warm SkippedProve = %d, want %d", lr2.SkippedProve, lr.SkippedProve)
	}
}

// TestTraceReferenceTrap: when the reference run traps, the analysis fails
// with a single reference event carrying the trap, on the sequential path
// and on the engine alike.
func TestTraceReferenceTrap(t *testing.T) {
	prog, err := irbuild.Compile("trap.mc", `
func main() {
	var a []int = new [4]int;
	for (var i int = 0; i < 8; i++) {
		a[i] = i;
	}
	print(a[0]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	analyses := map[string]func(core.Options) error{
		"core": func(opt core.Options) error { _, err := core.Analyze(prog, opt); return err },
		"engine": func(opt core.Options) error {
			_, err := engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 2})
			return err
		},
	}
	for name, analyze := range analyses {
		col := &obs.Collector{}
		if err := analyze(core.Options{Trace: col}); err == nil {
			t.Fatalf("%s: analysis of a faulting program succeeded", name)
		}
		events := col.Events()
		if len(events) != 1 {
			t.Fatalf("%s: %d events %+v, want one reference event", name, len(events), events)
		}
		if ev := events[0]; ev.Stage != obs.StageReference || ev.Outcome != obs.OutcomeTrap ||
			ev.Trap != sandbox.Fault.String() || ev.Err == "" {
			t.Errorf("%s: event %+v, want a reference trap with kind fault and an error", name, ev)
		}
	}
}
