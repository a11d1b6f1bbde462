package main

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"dca/internal/bench"
	"dca/internal/core"
	"dca/internal/engine"
	"dca/internal/fuzzgen"
	"dca/internal/fuzzgen/diff"
)

// benchmarkFile is the part of BENCHMARK.json the self-check compares with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkFile
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.5, trace: trace, tiny: true}
}

// TestEveryMetricPrinted runs every workload in tiny mode, untraced and
// traced, and checks that the result carries exactly the metrics
// BENCHMARK.json names, each with its unit, and no failed operation.
func TestEveryMetricPrinted(t *testing.T) {
	c := readBenchmarkFile(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		w, ok := lookup(cw.Name)
		if !ok {
			t.Fatalf("workload %q is in BENCHMARK.json but not in the benchmark", cw.Name)
		}
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			res, err := execute(w, tinyConfig(w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestCountsRepeat checks that every per-layer count metric of two traced
// npb-cold passes is identical. The Go runtime's GC cycle count depends on
// timing and is left out.
func TestCountsRepeat(t *testing.T) {
	specs := npbSpecs(true)
	pool := engine.NewPool(1)
	var counts [2]map[string]float64
	for i := range counts {
		l := newLayers()
		if _, _, err := npbPass(specs, pool, l); err != nil {
			t.Fatal(err)
		}
		r := newRun(config{})
		l.report(r, 1)
		counts[i] = map[string]float64{}
		for _, m := range perLayer {
			if m.unit == "count" && m.name != "runtime.gc_cycles" {
				counts[i][m.name] = r.metrics[m.name].Value
			}
		}
	}
	if counts[0]["engine.loops"] == 0 {
		t.Fatal("traced pass analyzed no loops")
	}
	for name, v := range counts[0] {
		if counts[1][name] != v {
			t.Errorf("%s: %v then %v", name, v, counts[1][name])
		}
	}
}

// TestFlippedVerdictFails flips one verdict in each workload's output and
// checks that the output check counts a failed operation.
func TestFlippedVerdictFails(t *testing.T) {
	t.Run("npb", func(t *testing.T) {
		s, tables, err := npbPass(npbSpecs(true)[:1], engine.NewPool(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		r := newRun(config{})
		checkNPBPass(r, s, tables, tables)
		if r.failed != 0 {
			t.Fatalf("unmodified pass failed: %v", r.failures)
		}
		flipFirst(t, s.Results[0])
		checkNPBPass(r, s, tables, tables)
		if r.failed != 1 {
			t.Errorf("flipped verdict: %d failed operations, want 1", r.failed)
		}
	})
	t.Run("serve", func(t *testing.T) {
		p := fuzzgen.New(5)
		s, err := startServer(nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.analyze(p.Render())
		if serr := s.stop(); serr != nil {
			t.Error(serr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if why := checkReply(5, rep, p.Labels()); why != "" {
			t.Fatalf("unmodified reply failed: %s", why)
		}
		flipped := false
		for i, lp := range rep.report.Loops {
			label, ok := p.Labels()[lp.Fn]
			if ok && label == fuzzgen.LabelCommutative && lp.Verdict == core.Commutative.String() {
				rep.report.Loops[i].Verdict = core.NonCommutative.String()
				flipped = true
				break
			}
		}
		if !flipped {
			t.Fatal("program 5 has no commutative labeled loop to flip")
		}
		if checkReply(5, rep, p.Labels()) == "" {
			t.Error("flipped verdict passed the label check")
		}
		if checkReply(5, reply{status: http.StatusServiceUnavailable}, p.Labels()) == "" {
			t.Error("a 503 passed the check")
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		if campaignFailure(1, &diff.Stats{Completed: 1}) != "" {
			t.Fatal("a clean campaign failed")
		}
		if campaignFailure(1, &diff.Stats{Completed: 1, SoundnessViolations: 1}) == "" {
			t.Error("a soundness violation passed")
		}
		if campaignFailure(1, &diff.Stats{Trapped: 1, TrapKinds: map[string]int{"fault": 1}}) == "" {
			t.Error("a trapped program passed")
		}
	})
}

// flipFirst turns the first commutative DCA verdict of res non-commutative.
func flipFirst(t *testing.T, res *bench.NPBResult) {
	t.Helper()
	for _, lr := range res.DCA.Loops {
		if lr.Verdict == core.Commutative {
			lr.Verdict = core.NonCommutative
			return
		}
	}
	t.Fatal("no commutative loop to flip")
}
