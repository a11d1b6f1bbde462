package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dca/internal/cache"
	"dca/internal/core"
	"dca/internal/obs"
)

const testSrc = `
func main() {
	var a []int = new [16]int;
	for (var i int = 0; i < 16; i++) {
		a[i] = i * 3;
	}
	var s int = 0;
	for (var i int = 0; i < 16; i++) {
		s = s + a[i];
	}
	print(s);
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeReport(t *testing.T, data []byte) *core.ReportJSON {
	t.Helper()
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatalf("decode response: %v\n%s", err, data)
	}
	if ar.Report == nil {
		t.Fatalf("no report in response: %s", data)
	}
	return ar.Report
}

// TestAnalyzeComputedThenCached: the first request computes every verdict;
// an identical second request is served wholly from the cache with the same
// verdict table.
func TestAnalyzeComputedThenCached(t *testing.T) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: c, Workers: 2})

	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Filename: "t.mc", Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, body)
	}
	// Freshly analyzed loops carry "computed", "footprint-proved", or
	// "static-proved" provenance; what the test cares about is that they
	// were not cached.
	fresh := func(p string) bool {
		return p == core.ProvenanceComputed || p == core.ProvenanceFootprint ||
			p == core.ProvenanceProved
	}
	cold := decodeReport(t, body)
	if cold.TotalLoops == 0 {
		t.Fatal("cold report has no loops")
	}
	for _, l := range cold.Loops {
		if !fresh(l.Provenance) {
			t.Errorf("cold loop %s: provenance %q", l.ID, l.Provenance)
		}
	}

	resp, body = postAnalyze(t, ts.URL, AnalyzeRequest{Filename: "t.mc", Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, body)
	}
	warm := decodeReport(t, body)
	if warm.Replays != 0 {
		t.Errorf("warm request performed %d replays, want 0", warm.Replays)
	}
	for i, l := range warm.Loops {
		if l.Provenance != core.ProvenanceCached {
			t.Errorf("warm loop %s: provenance %q, want cached", l.ID, l.Provenance)
		}
		cd := cold.Loops[i]
		if l.Verdict != cd.Verdict || l.Reason != cd.Reason || l.Iterations != cd.Iterations {
			t.Errorf("warm loop %s diverged: %+v vs %+v", l.ID, l, cd)
		}
	}

	// no_cache forces recomputation even with the cache populated.
	resp, body = postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc, NoCache: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no_cache status %d: %s", resp.StatusCode, body)
	}
	for _, l := range decodeReport(t, body).Loops {
		if !fresh(l.Provenance) {
			t.Errorf("no_cache loop %s: provenance %q, want freshly analyzed", l.ID, l.Provenance)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
}

// TestStats: counters reflect served traffic, the pool section reports the
// configured workers, and the cache section carries hit counters.
func TestStats(t *testing.T) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: c, Workers: 3})

	postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: "not a program"})

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 {
		t.Errorf("requests = %d, want 3", st.Requests)
	}
	if st.Analyzed != 2 {
		t.Errorf("analyzed = %d, want 2", st.Analyzed)
	}
	if st.Errored != 1 {
		t.Errorf("errored = %d, want 1", st.Errored)
	}
	if st.Pool.Workers != 3 {
		t.Errorf("pool workers = %d, want 3", st.Pool.Workers)
	}
	if st.Cache == nil {
		t.Fatal("no cache section")
	}
	if st.Cache.Hits() == 0 {
		t.Error("warm request produced no cache hits")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSourceBytes: 4096})

	cases := []struct {
		name string
		body string
		want int
		// field, when set, must be named in the error message.
		field string
	}{
		{"invalid-json", "{nope", http.StatusBadRequest, ""},
		{"missing-source", `{"filename": "x.mc"}`, http.StatusBadRequest, ""},
		{"bad-program", `{"source": "func main("}`, http.StatusUnprocessableEntity, ""},
		{"oversized", fmt.Sprintf(`{"source": %q}`, strings.Repeat("x", 8192)), http.StatusRequestEntityTooLarge, ""},
		{"negative-timeout", `{"source": "func main() { print(0); }", "timeout_ms": -5}`, http.StatusBadRequest, ""},
		{"overflowing-timeout", `{"source": "func main() { print(0); }", "timeout_ms": 9300000000000000}`, http.StatusBadRequest, ""},
		{"negative-max-steps", `{"source": "func main() { print(0); }", "max_steps": -1}`, http.StatusBadRequest, ""},
		{"negative-schedules", `{"source": "func main() { print(0); }", "schedules": -1}`, http.StatusBadRequest, ""},
		// A misspelt knob and the retired shard filter and executor switch
		// are rejected by name, never dropped: analyzing anyway would
		// ignore what the client asked.
		{"misspelt-knob", `{"source": "func main() { print(0); }", "no_footprnt": true}`, http.StatusBadRequest, "no_footprnt"},
		{"retired-loops-field", `{"source": "func main() { print(0); }", "loops": [{"fn": "main", "index": 0}]}`, http.StatusBadRequest, "loops"},
		{"retired-executor-field", `{"source": "func main() { print(0); }", "no_vm": true}`, http.StatusBadRequest, "no_vm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("error body must be JSON: %v", err)
			}
			if er.Error == "" {
				t.Error("empty error message")
			}
			if tc.field != "" && !strings.Contains(er.Error, `"`+tc.field+`"`) {
				t.Errorf("error %q does not name the field %q", er.Error, tc.field)
			}
		})
	}

	// GET on /analyze is rejected by the method-aware mux.
	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze: status %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentRequests: a burst of parallel analyses against a small pool
// must all succeed with consistent verdicts. Run under -race this is the
// server's sharing discipline test.
func TestConcurrentRequests(t *testing.T) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Cache: c, Workers: 2, MaxConcurrent: 4})

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Two distinct programs interleaved, so the cache serves both.
			src := testSrc
			if i%2 == 1 {
				src = strings.Replace(testSrc, "i * 3", "i * 5", 1)
			}
			resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Source: src})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			rep := decodeReport(t, body)
			if rep.TotalLoops == 0 {
				errs <- fmt.Errorf("request %d: empty report", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.requests.Value(); got != n {
		t.Errorf("requests = %d, want %d", got, n)
	}
	if s.inFlight.Value() != 0 {
		t.Errorf("in-flight = %d after drain, want 0", s.inFlight.Value())
	}
}

// TestBudgetClamping: requests may tighten sandbox budgets but a request
// asking for more than the server ceiling is clamped down to it.
func TestBudgetClamping(t *testing.T) {
	s := New(Config{MaxSteps: 1000, Timeout: time.Second, Schedules: 2})

	opt := s.options(&AnalyzeRequest{MaxSteps: 500, TimeoutMS: 100})
	if opt.Core.MaxSteps != 500 {
		t.Errorf("tightened MaxSteps = %d, want 500", opt.Core.MaxSteps)
	}
	if opt.Core.Timeout != 100*time.Millisecond {
		t.Errorf("tightened Timeout = %v, want 100ms", opt.Core.Timeout)
	}

	opt = s.options(&AnalyzeRequest{MaxSteps: 1 << 40, TimeoutMS: 3600_000})
	if opt.Core.MaxSteps != 1000 {
		t.Errorf("clamped MaxSteps = %d, want the 1000 ceiling", opt.Core.MaxSteps)
	}
	if opt.Core.Timeout != time.Second {
		t.Errorf("clamped Timeout = %v, want the 1s ceiling", opt.Core.Timeout)
	}

	// Schedule count is bounded by the server default too.
	if got := len(s.options(&AnalyzeRequest{Schedules: 100}).Core.Schedules); got != 3 {
		t.Errorf("schedules = %d (incl. reverse), want 3", got)
	}
	if got := len(s.options(&AnalyzeRequest{Schedules: 1}).Core.Schedules); got != 2 {
		t.Errorf("schedules = %d (incl. reverse), want 2", got)
	}
}

// TestGracefulDrain: cancelling the serve context stops the listener and
// Serve returns cleanly once in-flight work drains.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2, DrainTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	resp, body := postAnalyze(t, url, AnalyzeRequest{Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}

	// The listener is closed: new connections must fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still accepting connections after drain")
	}
}

// TestRequestValidation: the budget arithmetic that silently overflowed
// (timeout_ms * time.Millisecond wrapping negative) is now rejected up
// front, and the largest representable timeout still clamps sanely.
func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name    string
		req     AnalyzeRequest
		wantErr bool
	}{
		{"zero", AnalyzeRequest{}, false},
		{"max-timeout", AnalyzeRequest{TimeoutMS: maxTimeoutMS}, false},
		{"overflow-timeout", AnalyzeRequest{TimeoutMS: maxTimeoutMS + 1}, true},
		{"negative-timeout", AnalyzeRequest{TimeoutMS: -1}, true},
		{"negative-steps", AnalyzeRequest{MaxSteps: -1}, true},
		{"negative-schedules", AnalyzeRequest{Schedules: -1}, true},
	}
	for _, tc := range cases {
		if err := tc.req.validate(); (err != nil) != tc.wantErr {
			t.Errorf("%s: validate() = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}

	// A validated maximal timeout must never reach the engine negative.
	s := New(Config{Timeout: time.Second})
	if d := s.options(&AnalyzeRequest{TimeoutMS: maxTimeoutMS}).Core.Timeout; d != time.Second {
		t.Errorf("maximal timeout_ms produced engine timeout %v, want the 1s ceiling", d)
	}
}

// TestHealthzDraining: once the drain window opens, /healthz flips to
// "draining" with 503 so load balancers take the instance out of rotation.
func TestHealthzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.beginDrain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("status %q, want draining", h.Status)
	}
}

// TestMetrics: GET /metrics serves Prometheus text covering requests, pool
// occupancy, the replay latency histogram, verdict counters, and both the
// analysis-level and tiered cache counters.
func TestMetrics(t *testing.T) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: c, Workers: 2})

	// Cold then warm: the second request is served from the cache.
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()

	for _, want := range []string{
		"dca_requests_total 2\n",
		"dca_request_outcomes_total{outcome=\"analyzed\"} 2\n",
		"# TYPE dca_replay_seconds histogram\n",
		"dca_replay_seconds_bucket{le=\"+Inf\"}",
		"dca_replay_seconds_sum",
		"dca_loops_total{verdict=\"commutative\"} 4\n",
		"dca_pool_workers 2\n",
		"dca_pool_in_use 0\n",
		"dca_inflight_requests 0\n",
		"dca_loops_analyzed_total 4\n",
		"dca_verdict_cache_hits_total 2\n",
		"dca_verdict_cache_misses_total 2\n",
		"dca_cache_mem_hits_total 2\n",
		"dca_traps_total",
		"dca_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics output:\n%s", out)
	}
}

// slowSrc keeps the interpreter busy long enough for a cancellation to
// land mid-analysis (a few hundred ms per execution).
const slowSrc = `
func main() {
	var s int = 0;
	for (var i int = 0; i < 2000; i++) {
		for (var j int = 0; j < 2000; j++) {
			s = s + i * j;
		}
	}
	print(s);
}`

// TestAnalyzeCancellation: a client that disconnects mid-analysis frees its
// request slot and every pool worker promptly, is accounted as rejected
// (not errored), leaves a cancelled-verdict trail in the trace, and does
// not starve the next request.
func TestAnalyzeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &obs.Collector{}
	sink := obs.Multi{col, obs.SinkFunc(func(ev obs.Event) {
		if ev.Stage == obs.StageGolden {
			cancel() // the client hangs up as the first golden run finishes
		}
	})}
	s, ts := newTestServer(t, Config{Workers: 2, MaxConcurrent: 1, Trace: sink})

	// no_footprint: the hang-up trigger is the first golden run, which the
	// reference run would otherwise make unnecessary for slowSrc's loops.
	body, err := json.Marshal(AnalyzeRequest{Source: slowSrc, NoFootprint: true})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled request completed with a response")
	}

	// The semaphore slot and every pool worker must come free, and the
	// request must be accounted as rejected.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.InUse() != 0 || len(s.sem) != 0 || s.outcomes.Value(outcomeRejected) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancellation did not release resources: pool in use %d, slots held %d, rejected %d",
				s.pool.InUse(), len(s.sem), s.outcomes.Value(outcomeRejected))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.outcomes.Value(outcomeErrored); got != 0 {
		t.Errorf("errored = %d, want 0 (a disconnect is load shed, not an analysis failure)", got)
	}

	// The trace proves replays were aborted rather than run to completion.
	var sawCancelled bool
	for _, ev := range col.Events() {
		if ev.Stage == obs.StageVerdict && ev.Verdict == core.Cancelled.String() {
			sawCancelled = true
			break
		}
	}
	if !sawCancelled {
		t.Error("trace has no cancelled verdict event")
	}

	// With MaxConcurrent=1, a leaked slot would starve this follow-up.
	resp, rbody := postAnalyze(t, ts.URL, AnalyzeRequest{Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request after cancellation: status %d: %s", resp.StatusCode, rbody)
	}
}
