package engine_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dca/internal/core"
	"dca/internal/engine"
	"dca/internal/irbuild"
	"dca/internal/obs"
)

// spyCache counts stores; Get always misses.
type spyCache struct {
	mu   sync.Mutex
	puts int
}

func (c *spyCache) Get(key string) ([]byte, bool) { return nil, false }

func (c *spyCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
}

func (c *spyCache) Puts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}

const cancelSrc = `
func main() {
	var a []int = new [64]int;
	for (var i int = 0; i < 64; i++) {
		a[i] = i;
	}
	for (var i int = 0; i < 64; i++) {
		a[i] = a[i] * 2;
	}
	var s int = 0;
	for (var i int = 0; i < 64; i++) {
		s = s + a[i];
	}
	print(s);
}`

// TestAnalyzeCancelledMidFlight: cancelling the analysis context at the
// first golden run deterministically marks every loop Cancelled (the first
// loop's replays abort, the rest never start), stores nothing in the
// verdict cache, and still returns a complete, ordered report.
func TestAnalyzeCancelledMidFlight(t *testing.T) {
	prog, err := irbuild.Compile("cancel.mc", cancelSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &obs.Collector{}
	sink := obs.Multi{col, obs.SinkFunc(func(ev obs.Event) {
		if ev.Stage == obs.StageGolden {
			cancel()
		}
	})}
	spy := &spyCache{}
	opt := testOptions()
	opt.Trace = sink
	opt.Cache = spy
	// Prover off and no decisions from the reference run: the cancel
	// trigger is the first golden run, which a static proof or the
	// reference run's footprint would skip for these loops entirely.
	opt.NoProve = true
	opt.NoFootprint = true
	// One worker: loops run in order, so the cancel lands during loop 0's
	// dynamic stage and every later loop sees a dead context at entry.
	rep, err := engine.Analyze(ctx, prog, engine.Options{Core: opt, Workers: 1})
	if err != nil {
		t.Fatalf("cancelled analysis must still return its report, got %v", err)
	}
	if len(rep.Loops) != 3 {
		t.Fatalf("report has %d loops, want 3", len(rep.Loops))
	}
	for _, lr := range rep.Loops {
		if lr.Verdict != core.Cancelled {
			t.Errorf("loop %s: verdict %s, want cancelled", lr.ID, lr.Verdict)
		}
		if lr.Reason == "" {
			t.Errorf("loop %s: cancelled verdict carries no reason", lr.ID)
		}
	}
	if n := spy.Puts(); n != 0 {
		t.Errorf("cancelled analysis stored %d cache entries, want 0", n)
	}
	var verdicts int
	for _, ev := range col.Events() {
		if ev.Stage == obs.StageVerdict {
			verdicts++
			if ev.Verdict != "cancelled" {
				t.Errorf("verdict event for %s says %q, want cancelled", ev.LoopID, ev.Verdict)
			}
		}
	}
	if verdicts != 3 {
		t.Errorf("got %d verdict events, want 3", verdicts)
	}
}

// TestAnalyzeCancelledBeforeProofLands: a cancellation that arrives while
// the static prover is deciding a loop wins over the proof — the loop
// reports Cancelled, never static-proved, and nothing reaches the verdict
// cache. The trigger is the cache-miss event, which fires immediately
// before the prover runs.
func TestAnalyzeCancelledBeforeProofLands(t *testing.T) {
	prog, err := irbuild.Compile("cancel.mc", cancelSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &obs.Collector{}
	sink := obs.Multi{col, obs.SinkFunc(func(ev obs.Event) {
		if ev.Stage == obs.StageCache && ev.Outcome == obs.OutcomeMiss {
			cancel()
		}
	})}
	spy := &spyCache{}
	opt := testOptions()
	opt.Trace = sink
	opt.Cache = spy
	rep, err := engine.Analyze(ctx, prog, engine.Options{Core: opt, Workers: 1})
	if err != nil {
		t.Fatalf("cancelled analysis must still return its report, got %v", err)
	}
	for _, lr := range rep.Loops {
		if lr.Verdict != core.Cancelled {
			t.Errorf("loop %s: verdict %s (%s), want cancelled", lr.ID, lr.Verdict, lr.Provenance)
		}
		if lr.Provenance == core.ProvenanceProved {
			t.Errorf("loop %s: proof landed after cancellation", lr.ID)
		}
	}
	if n := spy.Puts(); n != 0 {
		t.Errorf("cancelled analysis stored %d cache entries, want 0", n)
	}
	for _, ev := range col.Events() {
		if ev.Stage == obs.StageProve && ev.Outcome == obs.OutcomeProved {
			t.Errorf("cancelled loop %s emitted a proved event", ev.LoopID)
		}
	}
}

// TestAnalyzeCancelledBeforeStart: a context that is already dead fails the
// reference execution with a cancellation error, not a timeout diagnosis.
func TestAnalyzeCancelledBeforeStart(t *testing.T) {
	prog, err := irbuild.Compile("cancel.mc", cancelSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = engine.Analyze(ctx, prog, engine.Options{Core: testOptions(), Workers: 1})
	if err == nil {
		t.Fatal("analysis under a dead context must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
}
