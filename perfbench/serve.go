package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dca/internal/cache"
	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/fingerprint"
	"dca/internal/fuzzgen"
	"dca/internal/instrument"
	"dca/internal/irbuild"
	"dca/internal/purity"
	"dca/internal/server"
)

// serveClients is the closed loop's size: one client per core of the
// 2-core reference host, each waiting for its verdict before sending on.
const serveClients = 2

// warmupSize is how many distinct programs setup sends; every repeat in
// the timed stream is one of them. 200 programs keep the setup time from
// depending on which few heavy programs a seed happens to draw.
func warmupSize(tiny bool) int {
	if tiny {
		return 8
	}
	return 200
}

// traffic is serve-fuzz's seeded request stream. Distinct requests are
// fuzzgen programs whose rendered source no earlier request had; one in
// four requests repeats a warm-up program instead. Because repeats come
// only from the warm-up set, which setup has answered in full, every
// repeat hits the verdict cache and every distinct request misses it,
// whatever the clients' interleaving. The warm-up set is the same for
// every seed, so setup does the same work in every run.
type traffic struct {
	mu     sync.Mutex
	rng    *rand.Rand
	next   int64 // next fuzzgen seed to try
	seen   map[[32]byte]bool
	warmup []int64
}

func newTraffic(seed int64, warmup int) *traffic {
	t := &traffic{
		rng:  rand.New(rand.NewPCG(uint64(seed), 0x7365727665)),
		seen: map[[32]byte]bool{},
	}
	for len(t.warmup) < warmup {
		t.warmup = append(t.warmup, t.distinct())
	}
	t.next = seed << 24
	return t
}

// distinct returns the seed of the next program with an unseen source.
func (t *traffic) distinct() int64 {
	for {
		s := t.next
		t.next++
		h := sha256.Sum256([]byte(fuzzgen.New(s).Render()))
		if !t.seen[h] {
			t.seen[h] = true
			return s
		}
	}
}

// request returns the fuzzgen seed of the stream's next request.
func (t *traffic) request() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng.IntN(4) == 0 {
		return t.warmup[t.rng.IntN(len(t.warmup))]
	}
	return t.distinct()
}

// serveRound is how many consecutive requests one round holds: enough
// that its 99th percentile has ten samples beyond it.
func serveRound(tiny bool) int {
	if tiny {
		return 4
	}
	return 1000
}

// serveSchedules is the schedule set `dca serve` runs by default: reverse
// plus three random permutations.
func serveSchedules() []dcart.Schedule {
	return []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}, dcart.Random{Seed: 2}, dcart.Random{Seed: 3}}
}

// liveServer is an in-process server.New on a loopback listener.
type liveServer struct {
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startServer starts a server with `dca serve`'s defaults: a memory-only
// verdict cache, GOMAXPROCS workers, 3 random schedules plus reverse, a
// 30 s execution timeout and one retry. A non-nil l times the cache and
// receives the trace events.
func startServer(l *layers) (*liveServer, error) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		return nil, fmt.Errorf("open cache: %w", err)
	}
	conf := server.Config{
		Schedules:      3,
		Timeout:        30 * time.Second,
		Retries:        1,
		MaxSourceBytes: 1 << 20,
		DrainTimeout:   15 * time.Second,
		Cache:          c,
	}
	if l != nil {
		conf.Cache = timedCache{l: l, c: c}
		conf.Trace = l
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &liveServer{
		url:    "http://" + ln.Addr().String() + "/analyze",
		cancel: cancel,
		done:   make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		}},
	}
	srv := server.New(conf)
	go func() { s.done <- srv.Serve(ctx, ln) }()
	return s, nil
}

// stop drains the server and waits for it to exit.
func (s *liveServer) stop() error {
	s.client.CloseIdleConnections()
	s.cancel()
	return <-s.done
}

// reply is one request's outcome as the client saw it.
type reply struct {
	latency time.Duration
	status  int
	report  *core.ReportJSON
}

// analyze posts one program and parses the verdicts.
func (s *liveServer) analyze(src string) (reply, error) {
	body, err := json.Marshal(server.AnalyzeRequest{Source: src})
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	rep := reply{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var ar server.AnalyzeResponse
		if err := json.Unmarshal(data, &ar); err != nil {
			return reply{}, fmt.Errorf("decode response: %w", err)
		}
		rep.report = ar.Report
	}
	rep.latency = time.Since(start)
	return rep, nil
}

// checkReply compares a response with the program's fuzzgen labels, the
// generator's ground truth: a loop labeled non-commutative must not be
// reported commutative, nor a commutative one non-commutative. It returns
// "" when the response is a 200 that agrees with every label.
func checkReply(seed int64, rep reply, labels map[string]fuzzgen.Label) string {
	if rep.status != http.StatusOK || rep.report == nil {
		return fmt.Sprintf("program seed %d: status %d", seed, rep.status)
	}
	for _, lp := range rep.report.Loops {
		label, ok := labels[lp.Fn]
		switch {
		case !ok:
		case label == fuzzgen.LabelNonCommutative && lp.Verdict == core.Commutative.String(),
			label == fuzzgen.LabelCommutative && lp.Verdict == core.NonCommutative.String():
			return fmt.Sprintf("program seed %d: loop %s labeled %s reported %s", seed, lp.ID, label, lp.Verdict)
		}
	}
	return ""
}

// served is what one closed-loop phase measured.
type served struct {
	latencies []float64 // ms, in completion order
	done      []float64 // completion times in seconds since the phase began
	overheads []float64 // ms: latency minus the report's analysis time
	analyzeS  float64   // sum of the reports' elapsed_seconds
	loops     int
	skipped   int // schedule replays the computed loops did not run
	shed      int
	seconds   float64
	seeds     []int64 // in completion order
	// rssMB is the process's peak resident memory when the phase completed
	// its rssAt-th request, 0 if it completed fewer.
	rssMB float64
}

// setupServer starts a server and sends it the warm-up set over the
// closed loop, returning the live server and the setup time.
func setupServer(r *run, t *traffic, l *layers) (*liveServer, float64, error) {
	start := time.Now()
	s, err := startServer(l)
	if err != nil {
		return nil, 0, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	var mu sync.Mutex
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(t.warmup) {
					return
				}
				p := fuzzgen.New(t.warmup[i])
				rep, err := s.analyze(p.Render())
				if err != nil {
					errs[c] = err
					return
				}
				why := checkReply(t.warmup[i], rep, p.Labels())
				mu.Lock()
				r.op(why)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(start).Seconds(), nil
}

// load drives the closed loop for the given seconds. A non-nil rss is read
// when the rssAt-th request completes.
func load(r *run, s *liveServer, t *traffic, seconds float64, rss *rssSampler, rssAt int) (*served, error) {
	out := &served{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seed := t.request()
				p := fuzzgen.New(seed)
				rep, err := s.analyze(p.Render())
				if err != nil {
					errs[c] = err
					return
				}
				why := checkReply(seed, rep, p.Labels())
				ms := float64(rep.latency) / float64(time.Millisecond)
				mu.Lock()
				r.op(why)
				out.latencies = append(out.latencies, ms)
				out.done = append(out.done, time.Since(start).Seconds())
				if rss != nil && len(out.latencies) == rssAt {
					out.rssMB = rss.Peak()
				}
				out.seeds = append(out.seeds, seed)
				if rep.status == http.StatusServiceUnavailable {
					out.shed++
				}
				if rep.report != nil {
					out.overheads = append(out.overheads, ms-rep.report.ElapsedSeconds*1000)
					out.analyzeS += rep.report.ElapsedSeconds
					out.loops += rep.report.TotalLoops
					for _, lp := range rep.report.Loops {
						if lp.Provenance != core.ProvenanceCached {
							out.skipped += lp.SkippedStop + lp.SkippedFootprint + lp.SkippedProve
						}
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.seconds = time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runServeFuzz(r *run) error {
	if r.cfg.trace {
		return serveTraced(r)
	}
	t := newTraffic(r.cfg.seed, warmupSize(r.cfg.tiny))
	var setup []float64
	var s *liveServer
	for i := 0; i < 9; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return fmt.Errorf("stop server: %w", err)
			}
		}
		var d float64
		var err error
		if s, d, err = setupServer(r, t, nil); err != nil {
			return err
		}
		setup = append(setup, d)
	}
	runtime.GC()
	debug.FreeOSMemory()
	// The server's memory cache and the stream's set of seen sources grow
	// with every distinct request, so peak memory is read after a fixed
	// number of requests: a faster server would otherwise show more.
	rss := startRSS()
	rssAt := 4 * serveRound(r.cfg.tiny)
	out, err := load(r, s, t, r.cfg.seconds, rss, rssAt)
	peak := rss.Stop()
	if serr := s.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop server: %w", serr)
	}
	if err != nil {
		return err
	}
	// A round is serveRound consecutive completed requests.
	var rs rounds
	rs.stream(out.latencies, out.done, serveRound(r.cfg.tiny))
	if err := rs.report(r, false); err != nil {
		return err
	}
	r.set("setup_s", median(setup), "s")
	if out.rssMB == 0 {
		return fmt.Errorf("%d requests completed, peak memory is read after %d", len(out.latencies), rssAt)
	}
	r.set("rss_peak_mb", out.rssMB, "MB")
	r.notef("%d requests in %.2f s; %d loops; peak memory %.2f MB after %d requests, %.2f MB at the end; setup samples %v",
		len(out.latencies), out.seconds, out.loops, out.rssMB, rssAt, peak, setup)
	return nil
}

// serveTraced runs an untraced phase, then a traced one against a fresh
// server whose cache and trace sink report to the layer totals. Layers the
// server hides behind its handler (compile, static stage, fingerprint) are
// timed afterwards by calling them on the first programs the traced phase
// served.
func serveTraced(r *run) error {
	half := r.cfg.seconds / 2
	t := newTraffic(r.cfg.seed, warmupSize(r.cfg.tiny))

	s, _, err := setupServer(r, t, nil)
	if err != nil {
		return err
	}
	before := readRuntime()
	plain, err := load(r, s, t, half, nil, 0)
	after := readRuntime()
	if serr := s.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return err
	}
	var rt runtimeDelta
	rt.add(before, after)

	l := newLayers()
	if s, _, err = setupServer(r, t, l); err != nil {
		return err
	}
	// The warm-up's totals belong to setup; count only the timed phase.
	l.reset()
	out, err := load(r, s, t, half, nil, 0)
	if serr := s.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return err
	}
	n := float64(len(out.latencies))
	l.add("engine.analyze_s", out.analyzeS)
	l.add("server.shed", float64(out.shed))
	l.add("core.replays_skipped", float64(out.skipped))
	l.setRaw("server.overhead_p50_ms", quantile(out.overheads, 0.5))
	l.add("fingerprint.calls", l.get("cache.gets"))

	sample := out.seeds
	if len(sample) > 200 {
		sample = sample[:200]
	}
	direct := newLayers()
	for _, seed := range sample {
		directLayers(direct, fuzzgen.New(seed).Render())
	}
	for _, name := range []string{"irbuild.compile_s", "instrument.static_s", "fingerprint.loop_s", "fingerprint.alloc_mb"} {
		l.add(name, direct.get(name)*n/float64(len(sample)))
	}

	rt.into(l, float64(len(plain.latencies))/1000)
	l.setRaw("trace.overhead_ratio", quantile(out.latencies, 0.5)/quantile(plain.latencies, 0.5))
	l.report(r, 1000/n)
	r.notef("untraced %d requests, traced %d requests, direct-timed sample %d programs", len(plain.latencies), len(out.latencies), len(sample))
	return nil
}

// directLayers times the layers the server runs inside its handler on one
// program: compile, then per loop that the selection stage keeps, the
// static stage and the fingerprint the cache lookup needs.
func directLayers(l *layers, src string) {
	start := time.Now()
	prog, err := irbuild.Compile("request.mc", src)
	l.addDur("irbuild.compile_s", time.Since(start))
	if err != nil {
		return
	}
	pur := purity.Analyze(prog)
	for _, fn := range prog.Funcs {
		_, loops := cfg.LoopsOf(fn)
		for _, loop := range loops {
			if pur.LoopDoesIO(loop.Blocks) {
				continue
			}
			start := time.Now()
			inst, err := instrument.Loop(prog, fn.Name, loop.Index)
			l.addDur("instrument.static_s", time.Since(start))
			if err != nil {
				continue
			}
			alloc := heapAllocBytes()
			start = time.Now()
			fingerprint.Loop(prog, fn.Name, loop.Index, inst, fingerprint.Inputs{Schedules: serveSchedules()})
			l.addDur("fingerprint.loop_s", time.Since(start))
			l.add("fingerprint.alloc_mb", float64(heapAllocBytes()-alloc)/1e6)
		}
	}
}
