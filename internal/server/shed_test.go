package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dca/internal/obs"
)

// TestShedDraining: a request arriving during the drain window is shed with
// 503 + Retry-After before its body is read, and counted by reason. The
// jitter source is pinned so the header is exact: base (7s drain timeout)
// plus the injected 3.
func TestShedDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, DrainTimeout: 7 * time.Second,
		RetryJitter: func(max int64) int64 { return 3 },
	})
	s.beginDrain()
	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "10" {
		t.Errorf("Retry-After = %q, want %q (drain timeout 7 + jitter 3)", ra, "10")
	}
	if got := s.shed.Value(shedDraining); got != 1 {
		t.Errorf("shed draining = %d, want 1", got)
	}
	if got := s.outcomes.Value(outcomeRejected); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestShedRetryAfterJitter: shed responses spread their Retry-After hints
// across [base, 2*base) instead of synchronizing every turned-away client
// onto one retry instant. The default jitter source must actually vary;
// each observed value must stay inside the window.
func TestShedRetryAfterJitter(t *testing.T) {
	const base = 20 // QueueTimeout in seconds; window is [20, 40)
	s, ts := newTestServer(t, Config{Workers: 1, QueueTimeout: base * time.Second})
	s.beginDrain() // draining sheds use the same jittered path; DrainTimeout defaults to 15s
	s.cfg.DrainTimeout = base * time.Second

	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
		}
		ra := resp.Header.Get("Retry-After")
		var secs int64
		if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil {
			t.Fatalf("unparsable Retry-After %q: %v", ra, err)
		}
		if secs < base || secs >= 2*base {
			t.Fatalf("Retry-After %d outside jitter window [%d, %d)", secs, base, 2*base)
		}
		seen[ra] = true
	}
	if len(seen) < 2 {
		t.Errorf("32 shed responses produced %d distinct Retry-After values; jitter is not spreading retries", len(seen))
	}
}

// TestShedQueueFull: once waiting requests fill the queue watermark, the
// next arrival is shed immediately — and the queued ones still complete
// when capacity frees up.
func TestShedQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 30 * time.Second,
	})
	// Hold the only analysis slot so admitted requests queue behind it.
	s.sem <- struct{}{}

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until both are admitted (1 queued + 1 counted against the
	// occupied slot), then the watermark (MaxConcurrent+MaxQueue = 2) is
	// full and a third arrival must shed.
	deadline := time.Now().Add(10 * time.Second)
	for s.admitted.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted = %d, want 2", s.admitted.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-watermark status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := s.shed.Value(shedQueueFull); got != 1 {
		t.Errorf("shed queue_full = %d, want 1", got)
	}

	// Free the slot: both queued requests must drain to 200.
	<-s.sem
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("queued request %d finished %d, want 200", i, code)
		}
	}
}

// TestShedQueueTimeout: a request that cannot get a slot within
// QueueTimeout is shed instead of waiting forever.
func TestShedQueueTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 50 * time.Millisecond,
	})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	start := time.Now()
	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("shed after %v, before the queue timeout", waited)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := s.shed.Value(shedQueueTimeout); got != 1 {
		t.Errorf("shed queue_timeout = %d, want 1", got)
	}
}

// TestDrainCompletesAdmittedWork: a request already in flight when the
// drain begins runs to completion — 200, full verdict trail in the trace —
// while arrivals during the drain are shed. This is the SIGTERM contract:
// stop taking work, finish what was promised.
func TestDrainCompletesAdmittedWork(t *testing.T) {
	col := &obs.Collector{}
	var s *Server
	var once sync.Once
	sink := obs.Multi{col, obs.SinkFunc(func(ev obs.Event) {
		if ev.Stage == obs.StageGolden {
			once.Do(func() { s.beginDrain() }) // SIGTERM lands mid-analysis
		}
	})}
	srv, hts := newTestServer(t, Config{Workers: 2, Trace: sink})
	s = srv

	// Two loops: the drain begins during the first loop's golden run, so
	// the second loop's entire dynamic stage runs inside the drain window.
	const drainSrc = `
func main() {
	var a []int = new [64]int;
	for (var i int = 0; i < 64; i++) { a[i] = i * 7; }
	var s int = 0;
	for (var i int = 0; i < 64; i++) { s = s + a[i]; }
	print(s);
}`
	// no_footprint: the drain trigger is the first golden run, which the
	// reference run would otherwise make unnecessary for the first loop.
	resp, body := postAnalyze(t, hts.URL, AnalyzeRequest{Source: drainSrc, NoFootprint: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request finished %d during drain, want 200: %s", resp.StatusCode, body)
	}
	rep := decodeReport(t, body)
	if len(rep.Loops) == 0 {
		t.Fatal("drained request returned an empty report")
	}
	verdicts := 0
	for _, ev := range col.Events() {
		if ev.Stage == obs.StageVerdict {
			verdicts++
			if ev.Verdict == "cancelled" {
				t.Errorf("loop %s/%s cancelled by drain; admitted work must finish", ev.Fn, ev.LoopID)
			}
		}
	}
	if verdicts != len(rep.Loops) {
		t.Errorf("trace has %d verdict events for %d loops", verdicts, len(rep.Loops))
	}

	// The drain is on: the next arrival is shed.
	resp2, _ := postAnalyze(t, hts.URL, AnalyzeRequest{Source: testSrc})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during-drain arrival got %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("during-drain shed missing Retry-After")
	}
}
