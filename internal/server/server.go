// Package server is the `dca serve` analysis service: a long-lived HTTP
// daemon that accepts MiniC program source, runs the concurrent analysis
// engine with the incremental verdict cache in front of every loop's
// dynamic stage, and returns structured per-loop verdicts.
//
// The service is built for sustained traffic:
//
//   - One engine.Pool is shared by every in-flight request, so total
//     interpreter concurrency is bounded by the configured worker budget no
//     matter how many requests arrive.
//   - A request semaphore bounds concurrent analyses, and an admission
//     gate sheds load before it becomes work: arrivals past the queue
//     watermark (MaxConcurrent + MaxQueue), requests that wait longer than
//     QueueTimeout for a slot, and arrivals during a drain are all turned
//     away with 503 + Retry-After, counted by reason in
//     dca_load_shed_total.
//   - The verdict cache's disk tier sits behind a circuit breaker
//     (internal/cache): repeated disk faults trip it open, the cache runs
//     memory-only, and /metrics shows the breaker state and trip count.
//   - Every analysis is scoped to its request context: a client that
//     disconnects mid-analysis cancels its interpreter runs, frees its
//     semaphore slot and pool workers promptly, and is accounted as
//     rejected — never cached, never counted as an analysis error.
//   - Every execution inherits the sandbox budgets and timeouts of the
//     fault-isolated dynamic stage; requests may tighten them but never
//     exceed the server's ceiling. Budgets that are negative or would
//     overflow the nanosecond clock are rejected with 400.
//   - Request bodies are size-capped before they are read.
//   - Shutdown is graceful: on context cancellation (SIGTERM in cmd/dca)
//     /healthz flips to "draining" with 503, the listener closes, in-flight
//     analyses drain within DrainTimeout, and only then does Serve return.
//
// Observability runs through one obs.Registry: every per-loop trace event
// the engine emits is folded into the registry's instruments
// (obs.AnalysisMetrics), GET /metrics serves the registry in Prometheus
// text format, and GET /stats re-expresses the same instruments as JSON —
// the three views can never disagree about what happened.
//
// Every request is analyzed in this process. POST /analyze?async=1 is the
// batch front end: it registers a run, answers 202 with a handle, and
// finishes the analysis in the background on a context the client's
// disconnect cannot cancel. GET /runs/{id} is the status; GET
// /runs/{id}/events streams per-loop verdicts in source order as NDJSON (or
// SSE under Accept: text/event-stream).
//
// Endpoints: POST /analyze (sync or ?async=1), GET /runs/{id},
// GET /runs/{id}/events, GET /healthz, GET /stats, GET /metrics.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dca/internal/cache"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/engine"
	"dca/internal/fingerprint"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/obs"
)

// Request outcome labels for the dca_request_outcomes_total counter — a
// closed set, per the registry's cardinality policy.
const (
	outcomeAnalyzed = "analyzed" // analysis completed, report returned
	outcomeErrored  = "errored"  // compile or reference-execution failure
	outcomeRejected = "rejected" // turned away: busy, oversized, or cancelled
)

// Load-shed reasons for the dca_load_shed_total counter — also a closed
// set. Every shed response carries 503 plus a Retry-After header.
const (
	shedQueueFull    = "queue_full"    // admission watermark exceeded
	shedQueueTimeout = "queue_timeout" // waited QueueTimeout without a slot
	shedDraining     = "draining"      // arrived during graceful shutdown
)

// Config tunes the analysis service. The zero value is production-safe:
// GOMAXPROCS workers, 1 MiB source cap, 30s per-execution timeout, default
// step budget, no cache.
type Config struct {
	// Workers bounds the engine pool shared by all requests (<= 0 means
	// GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds concurrently served /analyze requests (<= 0
	// means Workers).
	MaxConcurrent int
	// MaxQueue bounds how many admitted requests may wait for an analysis
	// slot beyond the MaxConcurrent in flight; arrivals past the watermark
	// are shed immediately with 503 + Retry-After instead of piling up
	// (<= 0 means 4x MaxConcurrent).
	MaxQueue int
	// QueueTimeout bounds how long an admitted request may wait for a slot
	// before it is shed (<= 0 means 10s).
	QueueTimeout time.Duration
	// MaxSourceBytes caps the request body (<= 0 means 1 MiB).
	MaxSourceBytes int64
	// MaxSteps / Timeout / MaxHeapObjects / MaxOutput are the
	// per-execution sandbox ceilings. Requests may lower them, never
	// raise them. Zero MaxSteps means the core default (200M); zero
	// Timeout means 30s.
	MaxSteps       int64
	Timeout        time.Duration
	MaxHeapObjects int64
	MaxOutput      int64
	// Retries is the doubled-budget retry count (0 means the core
	// default of 1; negative disables).
	Retries int
	// Schedules is the default number of random permutation schedules run
	// in addition to reverse (<= 0 means 3).
	Schedules int
	// Cache, when non-nil, serves repeated analyses without re-running
	// their dynamic stages.
	Cache core.VerdictCache
	// DrainTimeout bounds how long Serve waits for in-flight requests
	// after shutdown begins (<= 0 means 15s).
	DrainTimeout time.Duration
	// Trace, when non-nil, additionally receives every per-loop trace
	// event the analyses emit (e.g. an obs.JSONL sink). The server always
	// folds events into its /metrics registry regardless.
	Trace obs.Sink
	// RetryJitter overrides the Retry-After jitter source: it returns a
	// uniform value in [0, max). nil means math/rand. Tests inject a
	// deterministic source.
	RetryJitter func(max int64) int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 10 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Schedules <= 0 {
		c.Schedules = 3
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	return c
}

// Server is the analysis service.
type Server struct {
	cfg      Config
	pool     *engine.Pool
	sem      chan struct{}
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool

	// Observability: one registry backs /metrics and /stats; analysis
	// trace events flow into it through metrics (an obs.Sink), fanned out
	// together with cfg.Trace.
	reg     *obs.Registry
	metrics *obs.AnalysisMetrics
	sink    obs.Sink

	requests     *obs.Counter    // /analyze requests accepted for processing
	outcomes     *obs.CounterVec // accepted requests by final outcome
	shed         *obs.CounterVec // load-shed responses by reason
	loopsDone    *obs.Counter    // loops analyzed across all requests
	encodeErrors *obs.Counter    // response encodes that failed mid-write
	inFlight     *obs.Gauge
	admitted     atomic.Int64 // requests inside /analyze (waiting + in flight)

	// runs registers async analyses; bg tracks their background goroutines
	// so a drain can wait for them.
	runs   *Registry
	bg     sync.WaitGroup
	jitter func(max int64) int64

	logEncodeOnce sync.Once
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		pool:   engine.NewPool(cfg.Workers),
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		reg:    obs.NewRegistry(),
		runs:   NewRegistry(),
		jitter: cfg.RetryJitter,
	}
	if s.jitter == nil {
		s.jitter = rand.Int63n
	}
	s.metrics = obs.NewAnalysisMetrics(s.reg)
	s.sink = obs.Sink(s.metrics)
	if cfg.Trace != nil {
		s.sink = obs.Multi{s.metrics, cfg.Trace}
	}
	s.requests = s.reg.Counter("dca_requests_total",
		"Analyze requests accepted for processing.")
	s.outcomes = s.reg.CounterVec("dca_request_outcomes_total",
		"Accepted analyze requests by final outcome.", "outcome")
	s.shed = s.reg.CounterVec("dca_load_shed_total",
		"Requests shed with 503 + Retry-After, by reason.", "reason")
	s.reg.GaugeFunc("dca_queue_depth",
		"Admitted analyze requests waiting for an analysis slot.",
		func() float64 {
			if d := s.admitted.Load() - s.inFlight.Value(); d > 0 {
				return float64(d)
			}
			return 0
		})
	s.loopsDone = s.reg.Counter("dca_loops_analyzed_total",
		"Loops analyzed across all completed requests.")
	s.encodeErrors = s.reg.Counter("dca_response_encode_errors_total",
		"Responses whose JSON encoding failed mid-write (usually a disconnected client).")
	s.inFlight = s.reg.Gauge("dca_inflight_requests",
		"Analyze requests currently being served.")
	s.reg.GaugeFunc("dca_pool_workers",
		"Configured engine worker-pool capacity.",
		func() float64 { return float64(s.pool.Cap()) })
	s.reg.GaugeFunc("dca_pool_in_use",
		"Engine worker-pool slots held right now.",
		func() float64 { return float64(s.pool.InUse()) })
	s.reg.GaugeFunc("dca_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	// The production cache exposes tiered counters; sample them at scrape
	// time so /metrics covers hit tiers, evictions, and corruption without
	// double-counting the analysis-level hit/miss events.
	if c, ok := cfg.Cache.(*cache.Cache); ok && c != nil {
		s.reg.CounterFunc("dca_cache_mem_hits_total",
			"Verdict-cache lookups served from the memory tier.",
			func() float64 { return float64(c.Stats().MemHits) })
		s.reg.CounterFunc("dca_cache_disk_hits_total",
			"Verdict-cache lookups served from the disk tier.",
			func() float64 { return float64(c.Stats().DiskHits) })
		s.reg.CounterFunc("dca_cache_misses_total",
			"Verdict-cache lookups that missed both tiers.",
			func() float64 { return float64(c.Stats().Misses) })
		s.reg.CounterFunc("dca_cache_evictions_total",
			"Memory-tier entries evicted by the LRU bound.",
			func() float64 { return float64(c.Stats().Evictions) })
		s.reg.CounterFunc("dca_cache_corruptions_total",
			"Cache records rejected as corrupt.",
			func() float64 { return float64(c.Stats().Corruptions) })
		s.reg.CounterFunc("dca_cache_disk_write_errors_total",
			"Verdict-cache disk writes that failed (entry lost to recomputation).",
			func() float64 { return float64(c.Stats().DiskWriteErrors) })
		s.reg.CounterFunc("dca_cache_disk_read_errors_total",
			"Verdict-cache disk reads that failed with an I/O error (degraded to misses).",
			func() float64 { return float64(c.Stats().DiskReadErrors) })
		s.reg.CounterFunc("dca_cache_breaker_trips_total",
			"Times the cache's disk circuit breaker tripped open.",
			func() float64 { return float64(c.Stats().BreakerTrips) })
		s.reg.GaugeFunc("dca_cache_breaker_open",
			"Disk circuit breaker state: 0 closed, 0.5 half-open, 1 open.",
			func() float64 {
				switch c.Stats().BreakerState {
				case cache.BreakerOpen:
					return 1
				case cache.BreakerHalfOpen:
					return 0.5
				default:
					return 0
				}
			})
		// Route the cache's disk-fault trace events into the same stream the
		// analyses feed, so /metrics sees write errors as they happen.
		c.SetTrace(s.sink)
	}
	s.mux.HandleFunc("POST /analyze", s.handleAnalyze)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRunStatus)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	return s
}

// Handler exposes the service's HTTP handler (also used by tests via
// httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry, so embedders can add
// their own instruments next to the service's.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ListenAndServe serves on addr until ctx is cancelled, then drains
// gracefully. It returns nil after a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// beginDrain flips the server into its drain window: /healthz starts
// reporting "draining" with 503 so load balancers stop routing to it.
func (s *Server) beginDrain() { s.draining.Store(true) }

// Serve serves on an existing listener until ctx is cancelled, then shuts
// down gracefully: /healthz flips to draining, the listener closes, and
// in-flight requests get up to DrainTimeout to finish.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.beginDrain()
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		// Async runs outlive their HTTP handlers; give them the rest of the
		// drain window too, so a SIGTERM lets a run that is nearly done
		// finish and publish its report instead of abandoning it.
		done := make(chan struct{})
		go func() { s.bg.Wait(); close(done) }()
		select {
		case <-done:
		case <-drainCtx.Done():
		}
		return err
	}
}

// AnalyzeRequest is the /analyze request body.
type AnalyzeRequest struct {
	// Filename labels positions in verdicts ("request.mc" when empty).
	Filename string `json:"filename,omitempty"`
	// Source is the MiniC program to analyze.
	Source string `json:"source"`
	// Schedules overrides the number of random permutation schedules
	// (bounded by the server default; 0 keeps the default).
	Schedules int `json:"schedules,omitempty"`
	// MaxSteps / TimeoutMS tighten the per-execution budgets; values above
	// the server ceiling are clamped down to it. Negative values, and
	// timeouts too large to express in nanoseconds, are rejected with 400.
	MaxSteps  int64 `json:"max_steps,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache forces a fresh computation for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// StopAfter enables the sequential stopping rule: once this many
	// consecutive schedules agree with the golden run, the rest are
	// skipped. 0 tests every schedule; negative is rejected with 400.
	StopAfter int `json:"stop_after,omitempty"`
	// NoFootprint decides no loop from the reference run for this request:
	// every analyzed loop runs its golden run (core.Options.NoFootprint).
	NoFootprint bool `json:"no_footprint,omitempty"`
	// NoProve disables the static commutativity prover for this request,
	// so no loop's verdict comes from a static proof.
	NoProve bool `json:"no_prove,omitempty"`
}

// AnalyzeResponse is the /analyze response body.
type AnalyzeResponse struct {
	Report *core.ReportJSON `json:"report"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Usually the client hung up mid-write; count every occurrence,
		// log the first so a systematic encoding bug is visible without
		// flooding the log on every disconnect.
		s.encodeErrors.Inc()
		s.logEncodeOnce.Do(func() {
			log.Printf("server: response encode failed (further occurrences counted in dca_response_encode_errors_total): %v", err)
		})
	}
}

// clampBudget lowers def to req when the request asks for less; requests
// can never exceed the server ceiling. def <= 0 (unlimited server budget)
// adopts any requested bound.
func clampBudget(def, req int64) int64 {
	if req <= 0 {
		return def
	}
	if def <= 0 || req < def {
		return req
	}
	return def
}

// maxTimeoutMS is the largest request timeout expressible in nanoseconds;
// anything above it would overflow time.Duration's int64 clock.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// validate rejects request budgets no analysis could honour: negative
// values and timeouts that overflow the nanosecond clock. (Before this
// check existed, timeout_ms above ~9.2e12 silently overflowed into a
// negative — i.e. server-default — timeout.)
func (req *AnalyzeRequest) validate() error {
	if req.Schedules < 0 {
		return fmt.Errorf("\"schedules\" must be >= 0, got %d", req.Schedules)
	}
	if req.MaxSteps < 0 {
		return fmt.Errorf("\"max_steps\" must be >= 0, got %d", req.MaxSteps)
	}
	if req.TimeoutMS < 0 {
		return fmt.Errorf("\"timeout_ms\" must be >= 0, got %d", req.TimeoutMS)
	}
	if req.TimeoutMS > maxTimeoutMS {
		return fmt.Errorf("\"timeout_ms\" %d overflows the nanosecond clock (max %d)", req.TimeoutMS, maxTimeoutMS)
	}
	if req.StopAfter < 0 {
		return fmt.Errorf("\"stop_after\" must be >= 0, got %d", req.StopAfter)
	}
	return nil
}

// options assembles the engine options for one request. The request has
// passed validate, so the budget arithmetic cannot overflow.
func (s *Server) options(req *AnalyzeRequest) engine.Options {
	n := req.Schedules
	if n <= 0 || n > s.cfg.Schedules {
		n = s.cfg.Schedules
	}
	scheds := []dcart.Schedule{dcart.Reverse{}}
	for i := 0; i < n; i++ {
		scheds = append(scheds, dcart.Random{Seed: int64(i + 1)})
	}
	copt := core.Options{
		Schedules:      scheds,
		MaxSteps:       clampBudget(s.cfg.MaxSteps, req.MaxSteps),
		Timeout:        time.Duration(clampBudget(int64(s.cfg.Timeout), req.TimeoutMS*int64(time.Millisecond))),
		MaxHeapObjects: s.cfg.MaxHeapObjects,
		MaxOutput:      s.cfg.MaxOutput,
		Retries:        s.cfg.Retries,
		StopAfter:      req.StopAfter,
		NoFootprint:    req.NoFootprint,
		NoProve:        req.NoProve,
		Trace:          s.sink,
	}
	if !req.NoCache {
		copt.Cache = s.cfg.Cache
	}
	return engine.Options{Core: copt, Pool: s.pool}
}

// shedRequest turns one request away with 503, a Retry-After hint, and the
// shed accounting: load balancers and well-behaved clients back off instead
// of retrying into the same overload.
//
// The hint is jittered across [base, 2*base): a fixed value synchronizes
// every turned-away client onto the same retry instant, and they return as
// one thundering herd. The uniform spread decorrelates them; tests inject a
// deterministic jitter source via Config.RetryJitter.
func (s *Server) shedRequest(w http.ResponseWriter, reason, msg string) {
	s.outcomes.Inc(outcomeRejected)
	s.shed.Inc(reason)
	retry := int64(1)
	if secs := int64(s.cfg.QueueTimeout / time.Second); secs > retry {
		retry = secs
	}
	if reason == shedDraining {
		// This instance is going away; tell the client to wait out a typical
		// redeploy rather than hammer a dying process.
		retry = int64(s.cfg.DrainTimeout / time.Second)
		if retry < 1 {
			retry = 1
		}
	}
	retry += s.jitter(retry)
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
	s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{msg})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	// Admission gate, before the body is even read. Draining means every
	// new arrival belongs on another instance; the queue watermark bounds
	// how much work can pile up behind the MaxConcurrent in flight.
	if s.draining.Load() {
		s.shedRequest(w, shedDraining, "server is draining")
		return
	}
	if q := s.admitted.Add(1); q > int64(s.cfg.MaxConcurrent+s.cfg.MaxQueue) {
		s.admitted.Add(-1)
		s.shedRequest(w, shedQueueFull, "server at capacity: queue full")
		return
	}
	defer s.admitted.Add(-1)

	// Unknown fields are rejected, not dropped: a misspelt knob silently
	// ignored would analyze under a configuration the client never asked for.
	var req AnalyzeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.outcomes.Inc(outcomeRejected)
			s.writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxSourceBytes)})
			return
		}
		s.writeJSON(w, http.StatusBadRequest, errorResponse{"invalid request: " + err.Error()})
		return
	}
	if req.Source == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{"missing \"source\""})
		return
	}
	if err := req.validate(); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}

	// Concurrency bound: wait for a slot, but only as long as the client
	// stays and the queue timeout allows — a slow drain of the backlog must
	// turn into fast 503s, not requests parked until their sockets rot.
	// Async runs keep their slot past the handler's return; the background
	// goroutine releases it, so MaxConcurrent bounds sync and async work
	// uniformly.
	queueTimer := time.NewTimer(s.cfg.QueueTimeout)
	defer queueTimer.Stop()
	release := func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
	case <-queueTimer.C:
		s.shedRequest(w, shedQueueTimeout, "server at capacity: queue wait exceeded")
		return
	case <-r.Context().Done():
		s.outcomes.Inc(outcomeRejected)
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{"server at capacity"})
		return
	}
	s.requests.Inc()
	s.inFlight.Inc()

	filename := req.Filename
	if filename == "" {
		filename = "request.mc"
	}
	prog, err := irbuild.Compile(filename, req.Source)
	if err != nil {
		release()
		s.inFlight.Dec()
		s.outcomes.Inc(outcomeErrored)
		s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{"compile: " + err.Error()})
		return
	}

	if r.URL.Query().Get("async") != "" {
		s.startAsync(w, prog, &req)
		return
	}
	defer release()
	defer s.inFlight.Dec()

	// The analysis is scoped to the request: a disconnected client cancels
	// every interpreter run it still owns and frees the pool promptly.
	start := time.Now()
	rep, err := engine.Analyze(r.Context(), prog, s.options(&req))
	if r.Context().Err() != nil {
		// The client is gone; whatever the engine salvaged (Cancelled
		// verdicts were never cached) has no reader. This is load shed,
		// not an analysis failure.
		s.outcomes.Inc(outcomeRejected)
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{"analysis cancelled: client disconnected"})
		return
	}
	if err != nil {
		// The reference execution failed: the program is analyzable by
		// nobody, which is the request's fault, not the server's.
		s.outcomes.Inc(outcomeErrored)
		s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{"analysis: " + err.Error()})
		return
	}
	s.outcomes.Inc(outcomeAnalyzed)
	s.loopsDone.Add(uint64(len(rep.Loops)))
	s.writeJSON(w, http.StatusOK, AnalyzeResponse{Report: rep.JSON(time.Since(start))})
}

// runHandle is the 202 response to POST /analyze?async=1.
type runHandle struct {
	RunID      string `json:"run_id"`
	StatusURL  string `json:"status_url"`
	EventsURL  string `json:"events_url"`
	TotalLoops int    `json:"total_loops"`
}

// runKey fingerprints an async run's program + configuration. Its prefix
// becomes the run handle's suffix (Registry.NewRun), so a handle says which
// program and settings it analyzed.
func (s *Server) runKey(prog *ir.Program, req *AnalyzeRequest) string {
	copt := s.options(req).Core
	return fingerprint.Run(prog, fingerprint.Inputs{
		Schedules:   copt.Schedules,
		Limits:      copt.Limits(),
		Retries:     copt.Retries,
		StopAfter:   copt.StopAfter,
		NoFootprint: copt.NoFootprint,
		NoProve:     copt.NoProve,
	}).String()
}

// startAsync registers the analysis as a run and finishes it in the
// background: the response is an immediate 202 with the run handle, and
// the analysis itself runs on a context the client's disconnect cannot
// touch. The caller's semaphore slot travels with the goroutine, so
// MaxConcurrent bounds async and sync analyses together.
func (s *Server) startAsync(w http.ResponseWriter, prog *ir.Program, req *AnalyzeRequest) {
	refs := EnumerateLoops(prog)
	run := s.runs.NewRun(s.runKey(prog, req), refs)
	s.bg.Add(1)
	go s.runAsync(run, prog, req)
	s.writeJSON(w, http.StatusAccepted, runHandle{
		RunID:      run.ID(),
		StatusURL:  "/runs/" + run.ID(),
		EventsURL:  "/runs/" + run.ID() + "/events",
		TotalLoops: len(refs),
	})
}

// runAsync is the background half of an async run. It owns the semaphore
// slot and in-flight accounting its handler left behind, feeds the run's
// event stream as loops complete, and seals the run with its report.
func (s *Server) runAsync(run *Run, prog *ir.Program, req *AnalyzeRequest) {
	defer s.bg.Done()
	defer func() { <-s.sem; s.inFlight.Dec() }()

	start := time.Now()
	eopt := s.options(req)
	eopt.OnLoop = func(res *core.LoopResult) { run.Complete(res.JSON()) }
	rep, err := engine.Analyze(context.Background(), prog, eopt)
	if err != nil {
		s.outcomes.Inc(outcomeErrored)
		run.Finish(nil, err)
		return
	}
	s.outcomes.Inc(outcomeAnalyzed)
	s.loopsDone.Add(uint64(len(rep.Loops)))
	run.Finish(rep.JSON(time.Since(start)), nil)
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	run := s.runs.Get(r.PathValue("id"))
	if run == nil {
		s.writeJSON(w, http.StatusNotFound, errorResponse{"unknown run"})
		return
	}
	s.writeJSON(w, http.StatusOK, run.Status())
}

// handleRunEvents streams a run's per-loop verdicts — every verdict
// exactly once, in source order, no matter when the subscriber attaches
// (late subscribers replay the released prefix first). The default format
// is NDJSON: one core.LoopJSON object per line, terminated by the run's
// final Status object (recognizable by its "state" field). With
// Accept: text/event-stream the same payloads arrive as SSE "loop" events
// followed by one "done" event. A disconnect ends the stream only; the
// run itself continues on its background context.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	run := s.runs.Get(r.PathValue("id"))
	if run == nil {
		s.writeJSON(w, http.StatusNotFound, errorResponse{"unknown run"})
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	write := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for i := 0; ; {
		ev, ok, done := run.Next(r.Context(), i)
		switch {
		case ok:
			if !write("loop", ev) {
				return
			}
			i++
		case done:
			write("done", run.Status())
			return
		default:
			// Client gone; the run continues without this subscriber.
			return
		}
	}
}

// healthz is the liveness payload.
type healthz struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int64   `json:"in_flight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Load balancers must stop routing here while in-flight analyses
		// finish; 503 is the conventional take-me-out-of-rotation signal.
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, healthz{
		Status:        status,
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.inFlight.Value(),
	})
}

// statsResponse is the /stats payload — the registry's instruments
// re-expressed as JSON for humans and existing scrapers.
type statsResponse struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Requests      uint64       `json:"requests"`
	Analyzed      uint64       `json:"analyzed"`
	Errored       uint64       `json:"errored"`
	Rejected      uint64       `json:"rejected"`
	LoopsAnalyzed uint64       `json:"loops_analyzed"`
	InFlight      int64        `json:"in_flight"`
	Shed          shedStats    `json:"shed"`
	Pool          poolStats    `json:"pool"`
	Cache         *cache.Stats `json:"cache,omitempty"`
}

// shedStats re-expresses dca_load_shed_total for /stats readers.
type shedStats struct {
	QueueFull    uint64 `json:"queue_full"`
	QueueTimeout uint64 `json:"queue_timeout"`
	Draining     uint64 `json:"draining"`
}

type poolStats struct {
	Workers int `json:"workers"`
	InUse   int `json:"in_use"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Value(),
		Analyzed:      s.outcomes.Value(outcomeAnalyzed),
		Errored:       s.outcomes.Value(outcomeErrored),
		Rejected:      s.outcomes.Value(outcomeRejected),
		LoopsAnalyzed: s.loopsDone.Value(),
		InFlight:      s.inFlight.Value(),
		Shed: shedStats{
			QueueFull:    s.shed.Value(shedQueueFull),
			QueueTimeout: s.shed.Value(shedQueueTimeout),
			Draining:     s.shed.Value(shedDraining),
		},
		Pool: poolStats{Workers: s.pool.Cap(), InUse: s.pool.InUse()},
	}
	// The production cache exposes counters; any other VerdictCache simply
	// reports no cache section.
	if c, ok := s.cfg.Cache.(*cache.Cache); ok && c != nil {
		st := c.Stats()
		resp.Cache = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}
