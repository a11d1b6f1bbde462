// Command perfbench is the repository's benchmark: it runs one workload
// against the analyzer for a fixed number of seconds, checks every output
// against an answer the analyzer did not produce, and prints one JSON
// result line. With -trace 1 it instead prints the per-layer numbers,
// timed from this package around calls into each layer and through the
// seams the analyzer already exposes (core.VerdictCache, obs.Sink and the
// exported core.LoopResult fields); no tracing code lives in the analyzer.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload npb-cold --seed 1 --seconds 35 --trace 0
//
// README.md in this directory explains the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few units so the self-check test
	// exercises the whole harness in seconds.
	tiny bool
}

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one run's operations, failures and metrics.
type run struct {
	cfg       config
	attempted int
	failed    int
	// failures keeps the first few failure descriptions for stderr.
	failures []string
	metrics  map[string]metric
	// notes are human-readable facts (sample counts, pass times) printed
	// to stderr beside the result.
	notes []string
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, metrics: map[string]metric{}}
}

// op records one attempted operation; a non-empty why marks it failed.
func (r *run) op(why string) {
	r.attempted++
	if why != "" {
		r.fail(why)
	}
}

// fail records one failed operation that was already counted as attempted.
func (r *run) fail(why string) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, why)
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named input set with its reason for being measured.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"npb-cold", runNPBCold},
	{"serve-fuzz", runServeFuzz},
	{"fuzz-check", runFuzzCheck},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: npb-cold, serve-fuzz or fuzz-check")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 35, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics instead of end-to-end metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	w, ok := lookup(cfg.workload)
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <npb-cold|serve-fuzz|fuzz-check> --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	res, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute prints the host header, runs the workload and assembles the
// result line.
func execute(w workload, cfg config) (*result, error) {
	hdr := hostHeader(cfg)
	if !cfg.tiny {
		line, err := json.Marshal(map[string]any{"header": hdr})
		if err != nil {
			return nil, err
		}
		fmt.Println(string(line))
	}
	r := newRun(cfg)
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(r.metrics) != len(want) {
		return nil, fmt.Errorf("%s: printed %d metrics, want %d", w.name, len(r.metrics), len(want))
	}
	for _, m := range want {
		if got, ok := r.metrics[m.name]; !ok || got.Unit != m.unit {
			return nil, fmt.Errorf("%s: metric %s missing or not in %s", w.name, m.name, m.unit)
		}
	}
	if !cfg.tiny {
		// Calibration again after the run: the pair shows host drift over
		// the run beside the numbers; no metric is normalised by it.
		fmt.Fprintf(os.Stderr, "calibration: before %.4f s, after %.4f s\n", hdr["calibration_s"], calibrate())
		for _, n := range r.notes {
			fmt.Fprintln(os.Stderr, "note:", n)
		}
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "failed:", f)
		}
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// hostHeader stamps the record with what it was measured on and at.
func hostHeader(cfg config) map[string]any {
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok && bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"commit":        commit(),
		"source_sha256": sourceDigest(),
		"date":          time.Now().UTC().Format(time.RFC3339),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    goVersion,
		"calibration_s": calibrate(),
	}
}

// commit is the git HEAD when the tree has git metadata, else "unknown";
// source_sha256 names the code either way.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if sha, err := os.ReadFile(".git/" + strings.TrimPrefix(ref, "ref: ")); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == strings.TrimPrefix(ref, "ref: ") {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the analyzer's sources (go.mod, cmd/ and internal/,
// paths and contents in sorted order), naming the measured code where the
// checkout has no git metadata. It returns "unknown" if they cannot be read.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			return "unknown"
		}
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// calibrate times a fixed integer workload that shares no code with the
// repository: the median of five xorshift loops of 2^22 steps.
func calibrate() float64 {
	var times []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 1<<22; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times = append(times, time.Since(start).Seconds())
	}
	return median(times)
}

var calibSink uint64

// timedLoop calls unit until the phase has used its seconds: it starts
// another unit only while the elapsed time plus the mean unit time fits,
// and always runs at least minUnits units.
func timedLoop(seconds float64, minUnits int, unit func() error) error {
	start := time.Now()
	for n := 0; ; n++ {
		el := time.Since(start).Seconds()
		if n >= minUnits && n > 0 && el+el/float64(n) > seconds {
			return nil
		}
		if err := unit(); err != nil {
			return err
		}
	}
}

// rounds holds a timed phase's rounds. On npb-cold and fuzz-check every
// round is a pass over the same units (the suite's loops, the seed's
// program range), and a unit's latency is its fastest time over the first
// repeatRounds rounds: garbage collections and stolen time slices land on
// random units and would otherwise make up most of a pass's 1% tail. On
// serve-fuzz a round is the next block of a request stream that never
// repeats a distinct request, and each percentile is the median of the
// rounds' percentiles, so the request tail keeps its stalls. Throughput is
// the median of the rounds' rates, and includes every stall.
type rounds struct {
	lat  [][]float64 // per round, its units' latencies in ms
	secs []float64   // per round, its wall time in seconds
}

// repeatRounds is how many passes over the same units a run makes at
// least and takes each unit's fastest time over. A fixed count keeps the
// minimum from falling as a faster host or program fits more rounds in.
const repeatRounds = 4

// add records one round from its units' latencies and its wall time.
func (rs *rounds) add(lat []float64, seconds float64) {
	rs.lat = append(rs.lat, lat)
	rs.secs = append(rs.secs, seconds)
}

// stream splits a phase's latencies, in completion order, into rounds of
// size units; done[i] is unit i's completion time in seconds since the
// phase started. A partial last round is dropped.
func (rs *rounds) stream(lat, done []float64, size int) {
	prev := 0.0
	for end := size; end <= len(lat); end += size {
		rs.add(lat[end-size:end], done[end-1]-prev)
		prev = done[end-1]
	}
}

// report sets the latency and throughput metrics. repeated says every
// round measured the same units in the same order.
func (rs *rounds) report(r *run, repeated bool) error {
	if len(rs.lat) == 0 || repeated && len(rs.lat) < repeatRounds {
		return fmt.Errorf("%d complete rounds in %g s", len(rs.lat), r.cfg.seconds)
	}
	rate := make([]float64, len(rs.lat))
	var p50s, p99s []float64
	for i, lat := range rs.lat {
		rate[i] = float64(len(lat)) / rs.secs[i]
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
	}
	p50, p99 := median(p50s), median(p99s)
	if repeated {
		fastest := append([]float64(nil), rs.lat[0]...)
		for i, lat := range rs.lat[1:repeatRounds] {
			if len(lat) != len(fastest) {
				return fmt.Errorf("round %d measured %d units, round 0 %d", i+1, len(lat), len(fastest))
			}
			for u, v := range lat {
				fastest[u] = math.Min(fastest[u], v)
			}
		}
		p50, p99 = quantile(fastest, 0.5), quantile(fastest, 0.99)
	}
	r.set("latency_p50_ms", p50, "ms")
	r.set("latency_p99_ms", p99, "ms")
	r.set("throughput_per_s", median(rate), "1/s")
	r.notef("%d rounds of %d units: round p50 %s ms; round p99 %s ms; throughput %s /s",
		len(rs.lat), len(rs.lat[0]), brief(p50s), brief(p99s), brief(rate))
	return nil
}

// brief formats xs to four significant digits for the notes.
func brief(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// median returns the middle of xs (mean of the two middles), 0 if empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, 0 if xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
