package instrument_test

import (
	"testing"

	"dca/internal/cfg"
	"dca/internal/fuzzgen"
	"dca/internal/instrument"
	"dca/internal/ir"
	"dca/internal/irbuild"
)

// benchSink keeps the benchmarked builds observable.
var benchSink *instrument.Instrumented

// BenchmarkInstrument instruments every separable loop of fuzzgen seeds
// 1-200; one op is one pass over all of them. The programs are compiled
// and separated before the timer starts, so each program's shared facts
// (affine.EnvOf, pointer.Of) are built, as they are by the time an
// analysis reaches a loop's golden run.
func BenchmarkInstrument(b *testing.B) {
	type loopRef struct {
		prog  *ir.Program
		fn    string
		index int
	}
	var loops []loopRef
	for seed := int64(1); seed <= 200; seed++ {
		prog, err := irbuild.Compile("fuzz.mc", fuzzgen.New(seed).Render())
		if err != nil {
			b.Fatal(err)
		}
		for _, fn := range prog.Funcs {
			for _, l := range cfg.Loops(prog, fn) {
				if _, err := instrument.Separate(prog, fn.Name, l.Index); err == nil {
					loops = append(loops, loopRef{prog, fn.Name, l.Index})
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			inst, err := instrument.Loop(l.prog, l.fn, l.index)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = inst
		}
	}
	b.ReportMetric(float64(len(loops)), "loops")
}
