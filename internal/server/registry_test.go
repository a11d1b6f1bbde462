package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dca/internal/core"
)

func testRefs(n int) []LoopRef {
	refs := make([]LoopRef, n)
	for i := range refs {
		refs[i] = LoopRef{Fn: "f", Index: i}
	}
	return refs
}

func loopEvent(i int, verdict string) core.LoopJSON {
	return core.LoopJSON{Fn: "f", Index: i, Verdict: verdict}
}

// drain collects every event of a run's stream via the subscriber
// iterator, exactly as the /runs/{id}/events handler does.
func drain(t *testing.T, ctx context.Context, r *Run) []core.LoopJSON {
	t.Helper()
	var got []core.LoopJSON
	for i := 0; ; i++ {
		ev, ok, done := r.Next(ctx, i)
		if ok {
			got = append(got, ev)
			continue
		}
		if !done {
			t.Fatalf("subscriber cancelled at event %d", i)
		}
		return got
	}
}

// TestRunSourceOrderRelease: completions arriving in reverse order still
// stream to subscribers in source order.
func TestRunSourceOrderRelease(t *testing.T) {
	g := NewRegistry()
	r := g.NewRun("deadbeefcafe", testRefs(5))
	streamed := make(chan []core.LoopJSON, 1)
	go func() { streamed <- drain(t, context.Background(), r) }()

	for i := 4; i >= 0; i-- {
		r.Complete(loopEvent(i, "commutative"))
	}
	r.Finish(&core.ReportJSON{}, nil)

	got := <-streamed
	if len(got) != 5 {
		t.Fatalf("streamed %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev.Index != i {
			t.Fatalf("event %d has index %d; stream is not source-ordered", i, ev.Index)
		}
	}
}

// TestRunDuplicateCompletions: if the same loop completes twice, the first
// verdict wins and the stream carries it exactly once.
func TestRunDuplicateCompletions(t *testing.T) {
	g := NewRegistry()
	r := g.NewRun("deadbeefcafe", testRefs(3))
	r.Complete(loopEvent(1, "commutative"))
	r.Complete(loopEvent(1, "failed")) // duplicate while buffered
	r.Complete(loopEvent(0, "commutative"))
	r.Complete(loopEvent(0, "failed")) // duplicate after release
	r.Complete(loopEvent(2, "commutative"))
	r.Finish(&core.ReportJSON{}, nil)

	got := drain(t, context.Background(), r)
	if len(got) != 3 {
		t.Fatalf("streamed %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Verdict != "commutative" {
			t.Fatalf("event %d verdict %q; duplicate overwrote the first result", i, ev.Verdict)
		}
	}
	if st := r.Status(); st.CompletedLoops != 3 {
		t.Fatalf("CompletedLoops = %d, want 3", st.CompletedLoops)
	}
}

// TestRunLateSubscriber: a subscriber attaching after the run finished
// replays the full released prefix.
func TestRunLateSubscriber(t *testing.T) {
	g := NewRegistry()
	r := g.NewRun("deadbeefcafe", testRefs(4))
	for i := 0; i < 4; i++ {
		r.Complete(loopEvent(i, "commutative"))
	}
	r.Finish(&core.ReportJSON{Summary: map[string]int{"commutative": 4}}, nil)

	got := drain(t, context.Background(), r)
	if len(got) != 4 {
		t.Fatalf("late subscriber saw %d events, want 4", len(got))
	}
	st := r.Status()
	if st.State != "done" || st.Report == nil {
		t.Fatalf("status = %+v, want done with report", st)
	}
}

// TestRunSubscriberCancel: a cancelled subscriber context unblocks Next
// without ending the run.
func TestRunSubscriberCancel(t *testing.T) {
	g := NewRegistry()
	r := g.NewRun("deadbeefcafe", testRefs(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, done := r.Next(ctx, 0); ok || done {
		t.Fatalf("Next on cancelled ctx = ok=%v done=%v, want false/false", ok, done)
	}
	if r.Done() {
		t.Fatal("subscriber cancellation finished the run")
	}
	// The run is still live: complete it normally and verify a fresh
	// subscriber sees everything.
	r.Complete(loopEvent(0, "commutative"))
	r.Complete(loopEvent(1, "commutative"))
	r.Finish(&core.ReportJSON{}, nil)
	if got := drain(t, context.Background(), r); len(got) != 2 {
		t.Fatalf("fresh subscriber saw %d events, want 2", len(got))
	}
}

// TestRunFinishWithError: an erred run reports state "error" and its
// stream ends at the released prefix.
func TestRunFinishWithError(t *testing.T) {
	g := NewRegistry()
	r := g.NewRun("deadbeefcafe", testRefs(3))
	r.Complete(loopEvent(0, "commutative"))
	r.Finish(nil, fmt.Errorf("worker exploded"))
	r.Complete(loopEvent(1, "commutative")) // straggler after Finish

	got := drain(t, context.Background(), r)
	if len(got) != 1 {
		t.Fatalf("erred run streamed %d events, want the 1 released before Finish", len(got))
	}
	st := r.Status()
	if st.State != "error" || st.Error != "worker exploded" {
		t.Fatalf("status = %+v, want error state", st)
	}
	if _, err := r.Result(context.Background()); err == nil {
		t.Fatal("Result returned nil error for an erred run")
	}
}

// TestRegistryEviction: finished runs beyond the retention bound are
// evicted oldest-first; running runs survive.
func TestRegistryEviction(t *testing.T) {
	g := NewRegistry()
	running := g.NewRun("deadbeefcafe", testRefs(1))
	var finished []*Run
	for i := 0; i < maxRetainedRuns+8; i++ {
		r := g.NewRun(fmt.Sprintf("key%08d", i), nil)
		r.Finish(&core.ReportJSON{}, nil)
		finished = append(finished, r)
	}
	if g.Get(running.ID()) == nil {
		t.Fatal("running run was evicted")
	}
	if g.Get(finished[0].ID()) != nil {
		t.Fatal("oldest finished run survived past the retention bound")
	}
	if g.Get(finished[len(finished)-1].ID()) == nil {
		t.Fatal("newest finished run was evicted")
	}
}

// TestRunResultBlocks: Result parks until Finish.
func TestRunResultBlocks(t *testing.T) {
	g := NewRegistry()
	r := g.NewRun("deadbeefcafe", testRefs(1))
	done := make(chan error, 1)
	go func() {
		_, err := r.Result(context.Background())
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("Result returned before Finish")
	case <-time.After(20 * time.Millisecond):
	}
	r.Finish(&core.ReportJSON{}, nil)
	if err := <-done; err != nil {
		t.Fatalf("Result: %v", err)
	}
}
