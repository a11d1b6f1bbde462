package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dca/internal/core"
	"dca/internal/obs"
)

// perLayer lists every per-layer metric with its unit, in print order.
// Times, counts and megabytes are totals per unit of work: one suite pass
// on npb-*, 1000 requests on serve-fuzz, 1000 programs on fuzz-check.
// Ratios and the server's median are not scaled. A layer that does no work
// on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"irbuild.compile_s", "s"},
	{"depprof.trace_s", "s"},
	{"baselines.analyze_s", "s"},
	{"bench.tables_s", "s"},
	{"engine.analyze_s", "s"},
	{"engine.self_s", "s"},
	{"engine.loops", "count"},
	{"engine.prescreened", "count"},
	{"vm.reference_s", "s"},
	{"instrument.static_s", "s"},
	{"instrument.loops", "count"},
	{"instrument.not_separable", "count"},
	{"fingerprint.loop_s", "s"},
	{"fingerprint.calls", "count"},
	{"fingerprint.alloc_mb", "MB"},
	{"cache.get_s", "s"},
	{"cache.put_s", "s"},
	{"cache.gets", "count"},
	{"cache.hit_ratio", "ratio"},
	{"prove.s", "s"},
	{"prove.attempts", "count"},
	{"prove.proved_ratio", "ratio"},
	{"core.golden_s", "s"},
	{"core.golden_runs", "count"},
	{"core.footprint_decided_ratio", "ratio"},
	{"core.replay_s", "s"},
	{"core.replays", "count"},
	{"core.replays_skipped", "count"},
	{"core.divergent_ratio", "ratio"},
	{"server.overhead_p50_ms", "ms"},
	{"server.shed", "count"},
	{"parallel.runloop_s", "s"},
	{"parallel.checked", "count"},
	{"parallel.refused", "count"},
	{"interp.run_s", "s"},
	{"vm.run_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// endToEnd lists the metrics every untraced run prints, with their units.
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// layers accumulates the traced phase's per-layer totals. It is the obs
// sink handed to the engine and the clock behind the timed verdict cache;
// both are safe for concurrent use.
type layers struct {
	mu  sync.Mutex
	sum map[string]float64
}

func newLayers() *layers {
	return &layers{sum: map[string]float64{}}
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.sum[name] += v
	l.mu.Unlock()
}

// reset drops every total.
func (l *layers) reset() {
	l.mu.Lock()
	l.sum = map[string]float64{}
	l.mu.Unlock()
}

// setRaw stores a value report prints unscaled (a ratio or a median).
func (l *layers) setRaw(name string, v float64) {
	l.mu.Lock()
	l.sum[name] = v
	l.mu.Unlock()
}

func (l *layers) addDur(name string, d time.Duration) { l.add(name, d.Seconds()) }

func (l *layers) get(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sum[name]
}

// Emit folds one analyzer trace event into the totals.
func (l *layers) Emit(ev obs.Event) {
	sec := ev.DurationMS / 1000
	switch ev.Stage {
	case obs.StageReference:
		l.add("vm.reference_s", sec)
	case obs.StageStatic:
		switch ev.Outcome {
		case obs.OutcomeOK:
			l.add("instrument.loops", 1)
		case core.NotSeparable.String():
			l.add("instrument.loops", 1)
			l.add("instrument.not_separable", 1)
		}
	case obs.StagePrescreen:
		l.add("engine.prescreened", 1)
	case obs.StageProve:
		l.add("prove.attempts", 1)
		l.add("prove.s", sec)
		if ev.Outcome == obs.OutcomeProved {
			l.add("prove.proved", 1)
		}
	case obs.StageGolden:
		l.add("core.golden_runs", 1)
		l.add("core.golden_s", sec)
	case obs.StageReplay:
		l.add("core.replays", 1)
		l.add("core.replay_s", sec)
	case obs.StageCache:
		switch ev.Outcome {
		case obs.OutcomeHit:
			l.add("cache.hits", 1)
		case obs.OutcomeMiss:
			l.add("cache.misses", 1)
		}
	case obs.StageVerdict:
		l.add("engine.loops", 1)
		if ev.Provenance == core.ProvenanceFootprint {
			l.add("core.footprint_decided", 1)
		}
		if ev.Provenance == core.ProvenanceComputed {
			switch ev.Verdict {
			case core.NonCommutative.String():
				l.add("core.divergent", 1)
				l.add("core.replay_decided", 1)
			case core.Commutative.String():
				l.add("core.replay_decided", 1)
			}
		}
	}
}

// skipped adds the schedule replays a computed loop did not run.
func (l *layers) skipped(provenance string, stop, footprint, prove int) {
	if provenance == core.ProvenanceCached || provenance == core.ProvenanceJournaled {
		return // the counts describe the run that filled the cache
	}
	l.add("core.replays_skipped", float64(stop+footprint+prove))
}

// loopResults folds the exported per-loop fields of one report.
func (l *layers) loopResults(rep *core.Report) {
	for _, res := range rep.Loops {
		l.add("instrument.static_s", res.DurStatic.Seconds())
		l.skipped(res.Provenance, res.SkippedStop, res.SkippedFootprint, res.SkippedProve)
	}
}

// timedCache wraps the verdict cache the engine consults, timing every
// lookup and store.
type timedCache struct {
	l *layers
	c core.VerdictCache
}

func (t timedCache) Get(key string) ([]byte, bool) {
	start := time.Now()
	v, ok := t.c.Get(key)
	t.l.addDur("cache.get_s", time.Since(start))
	t.l.add("cache.gets", 1)
	return v, ok
}

func (t timedCache) Put(key string, val []byte) {
	start := time.Now()
	t.c.Put(key, val)
	t.l.addDur("cache.put_s", time.Since(start))
}

// report writes every per-layer metric into r, scaling totals by scale
// (the inverse of the number of units the totals cover).
func (l *layers) report(r *run, scale float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sum
	ratio := func(num, den string) float64 {
		if s[den] == 0 {
			return 0
		}
		return s[num] / s[den]
	}
	derived := map[string]float64{
		"cache.hit_ratio":              ratio("cache.hits", "cache.gets"),
		"prove.proved_ratio":           ratio("prove.proved", "prove.attempts"),
		"core.footprint_decided_ratio": ratio("core.footprint_decided", "core.golden_runs"),
		"core.divergent_ratio":         ratio("core.divergent", "core.replay_decided"),
		"server.overhead_p50_ms":       s["server.overhead_p50_ms"],
		"runtime.alloc_mb":             s["runtime.alloc_mb"],
		"runtime.gc_cycles":            s["runtime.gc_cycles"],
		"runtime.gc_cpu_ratio":         s["runtime.gc_cpu_ratio"],
		"trace.overhead_ratio":         s["trace.overhead_ratio"],
	}
	stages := 0.0
	for _, name := range []string{"vm.reference_s", "instrument.static_s", "fingerprint.loop_s",
		"cache.get_s", "cache.put_s", "prove.s", "core.golden_s", "core.replay_s"} {
		stages += s[name]
	}
	selfTime := s["engine.analyze_s"] - stages
	for _, m := range perLayer {
		v, ok := derived[m.name]
		switch {
		case ok:
		case m.name == "engine.self_s":
			v = selfTime * scale
		default:
			v = s[m.name] * scale
		}
		r.set(m.name, v, m.unit)
	}
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// runtimeDelta accumulates runtime counters over the untraced units of a
// traced run, so the tracing's own allocations stay out of them.
type runtimeDelta struct {
	alloc, cycles, gcCPU, totalCPU float64
}

func (d *runtimeDelta) add(before, after runtimeSample) {
	d.alloc += float64(after.allocBytes - before.allocBytes)
	d.cycles += float64(after.gcCycles - before.gcCycles)
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

// into stores the runtime metrics in l, already divided by the number of
// units of work the untraced phase covered.
func (d *runtimeDelta) into(l *layers, units float64) {
	l.setRaw("runtime.alloc_mb", d.alloc/1e6/units)
	l.setRaw("runtime.gc_cycles", d.cycles/units)
	if d.totalCPU > 0 {
		l.setRaw("runtime.gc_cpu_ratio", d.gcCPU/d.totalCPU)
	}
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssSampler records the peak resident set size while it runs, read from
// /proc/self/statm every few milliseconds.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for {
		old := s.peak.Load()
		if rss <= old || s.peak.CompareAndSwap(old, rss) {
			return
		}
	}
}

// Peak returns the peak so far in megabytes.
func (s *rssSampler) Peak() float64 {
	s.sample()
	return float64(s.peak.Load()) / 1e6
}

// Stop ends sampling and returns the peak in megabytes.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	return s.Peak()
}
