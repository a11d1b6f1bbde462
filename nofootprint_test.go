package main

import (
	"os"
	"runtime"
	"testing"

	"dca/internal/bench"
	"dca/internal/core"
	"dca/internal/workloads/plds"
)

// TestNoFootprintSuiteIdentity is the reference-evidence identity smoke:
// the full NPB suite run with the defaults, which decide most loops from
// the one reference run of each proxy, and again with NoFootprint, which
// runs every loop's golden run instead, must agree loop by loop on
// verdict, reason, trap kind and invocation and iteration counts, and
// render byte-identical Tables I, III and IV; the PLDS workloads run both
// ways must render a byte-identical Table II. It is gated behind
// DCA_FOOTPRINT_IDENTITY=1 and wired into CI's bench job next to the
// executor identity smoke.
func TestNoFootprintSuiteIdentity(t *testing.T) {
	if os.Getenv("DCA_FOOTPRINT_IDENTITY") == "" {
		t.Skip("set DCA_FOOTPRINT_IDENTITY=1 to run the full-suite reference-evidence identity check")
	}
	workers := runtime.NumCPU()
	def, err := bench.RunSuiteCore(workers, core.Options{})
	if err != nil {
		t.Fatalf("default suite: %v", err)
	}
	oracle, err := bench.RunSuiteCore(workers, core.Options{NoFootprint: true})
	if err != nil {
		t.Fatalf("no-footprint suite: %v", err)
	}
	for i, r := range def.Results {
		o := oracle.Results[i]
		if len(r.DCA.Loops) != len(o.DCA.Loops) {
			t.Fatalf("%s: %d loops vs %d", r.Spec.Name, len(r.DCA.Loops), len(o.DCA.Loops))
		}
		for j, a := range r.DCA.Loops {
			b := o.DCA.Loops[j]
			if a.ID != b.ID || a.Verdict != b.Verdict || a.Reason != b.Reason || a.TrapKind != b.TrapKind ||
				a.Invocations != b.Invocations || a.Iterations != b.Iterations {
				t.Errorf("%s loop %s: default %s %q inv=%d it=%d (%s), no-footprint %s %q inv=%d it=%d",
					r.Spec.Name, a.ID, a.Verdict, a.Reason, a.Invocations, a.Iterations, a.Provenance,
					b.Verdict, b.Reason, b.Invocations, b.Iterations)
			}
		}
	}
	var pldsDef, pldsOracle []*bench.PLDSResult
	for _, p := range plds.Programs() {
		r, err := bench.RunPLDSCore(p, core.Options{})
		if err != nil {
			t.Fatalf("default %s: %v", p.Name, err)
		}
		o, err := bench.RunPLDSCore(p, core.Options{NoFootprint: true})
		if err != nil {
			t.Fatalf("no-footprint %s: %v", p.Name, err)
		}
		pldsDef, pldsOracle = append(pldsDef, r), append(pldsOracle, o)
	}
	tables := []struct {
		name     string
		def, orc string
	}{
		{"I", def.TableI(), oracle.TableI()},
		{"II", bench.TableII(pldsDef), bench.TableII(pldsOracle)},
		{"III", def.TableIII(), oracle.TableIII()},
		{"IV", def.TableIV(), oracle.TableIV()},
	}
	for _, tb := range tables {
		if tb.def != tb.orc {
			t.Errorf("Table %s diverges:\ndefault:\n%s\nno-footprint:\n%s", tb.name, tb.def, tb.orc)
		}
	}
}
