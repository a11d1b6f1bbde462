package fingerprint_test

import (
	"sync"
	"testing"
	"time"

	"dca/internal/cfg"
	"dca/internal/dcart"
	"dca/internal/fingerprint"
	"dca/internal/instrument"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/sandbox"
	"dca/internal/workloads/npb"
)

const baseSrc = `
func helper(x int) int { return x * 2; }
func main() {
	var array []int = new [32]int;
	for (var i int = 0; i < 32; i++) { array[i] = helper(i); }
	var s int = 0;
	for (var i int = 0; i < 32; i++) { s += array[i]; }
	print(s);
}`

// payloadChanged differs from baseSrc only inside the first loop's payload.
const payloadChanged = `
func helper(x int) int { return x * 2; }
func main() {
	var array []int = new [32]int;
	for (var i int = 0; i < 32; i++) { array[i] = helper(i) + 1; }
	var s int = 0;
	for (var i int = 0; i < 32; i++) { s += array[i]; }
	print(s);
}`

// calleeChanged differs from baseSrc only in a function the loop calls —
// the loop body's own IR is unchanged, but the dynamic stage executes the
// callee, so the key must still change.
const calleeChanged = `
func helper(x int) int { return x * 3; }
func main() {
	var array []int = new [32]int;
	for (var i int = 0; i < 32; i++) { array[i] = helper(i); }
	var s int = 0;
	for (var i int = 0; i < 32; i++) { s += array[i]; }
	print(s);
}`

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := irbuild.Compile("test.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func keyOf(t *testing.T, src string, loop int, in fingerprint.Inputs) fingerprint.Key {
	t.Helper()
	prog := compile(t, src)
	inst, err := instrument.Loop(prog, "main", loop)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	return fingerprint.Loop(prog, "main", loop, inst, in)
}

func defaultInputs() fingerprint.Inputs {
	return fingerprint.Inputs{
		Schedules: []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}},
		Limits:    sandbox.Limits{MaxSteps: 200_000_000},
		Retries:   1,
	}
}

// TestDeterministic: the same inputs always produce the same key, including
// across independent compilations of the same source.
func TestDeterministic(t *testing.T) {
	a := keyOf(t, baseSrc, 0, defaultInputs())
	b := keyOf(t, baseSrc, 0, defaultInputs())
	if a != b {
		t.Fatalf("same inputs produced different keys: %s vs %s", a, b)
	}
	if len(a.String()) != 32 {
		t.Fatalf("key %q is not 32 hex digits", a)
	}
}

// TestSensitivity: every input that can reach a verdict must change the
// key; each case flips exactly one input against the base.
func TestSensitivity(t *testing.T) {
	base := keyOf(t, baseSrc, 0, defaultInputs())

	cases := []struct {
		name string
		key  fingerprint.Key
	}{
		{"payload IR change", keyOf(t, payloadChanged, 0, defaultInputs())},
		{"callee change outside the loop body", keyOf(t, calleeChanged, 0, defaultInputs())},
		{"different loop of the same program", keyOf(t, baseSrc, 1, defaultInputs())},
		{"schedule seed change", keyOf(t, baseSrc, 0, func() fingerprint.Inputs {
			in := defaultInputs()
			in.Schedules = []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 2}}
			return in
		}())},
		{"schedule count change", keyOf(t, baseSrc, 0, func() fingerprint.Inputs {
			in := defaultInputs()
			in.Schedules = append(in.Schedules, dcart.Random{Seed: 2})
			return in
		}())},
		{"step budget change", keyOf(t, baseSrc, 0, func() fingerprint.Inputs {
			in := defaultInputs()
			in.Limits.MaxSteps = 100
			return in
		}())},
		{"timeout change", keyOf(t, baseSrc, 0, func() fingerprint.Inputs {
			in := defaultInputs()
			in.Limits.Timeout = time.Second
			return in
		}())},
		{"heap budget change", keyOf(t, baseSrc, 0, func() fingerprint.Inputs {
			in := defaultInputs()
			in.Limits.MaxHeapObjects = 10_000
			return in
		}())},
		{"retry budget change", keyOf(t, baseSrc, 0, func() fingerprint.Inputs {
			in := defaultInputs()
			in.Retries = 2
			return in
		}())},
		{"debug-snapshots change", keyOf(t, baseSrc, 0, func() fingerprint.Inputs {
			in := defaultInputs()
			in.DebugSnapshots = true
			return in
		}())},
	}
	seen := map[fingerprint.Key]string{base: "base"}
	for _, c := range cases {
		if c.key == base {
			t.Errorf("%s: key did not change", c.name)
		}
		if prev, dup := seen[c.key]; dup {
			t.Errorf("%s: key collides with %s", c.name, prev)
		}
		seen[c.key] = c.name
	}
}

// TestRunKey: the run-level fingerprint is deterministic, sensitive to
// program and configuration changes, position-insensitive, and distinct
// from every loop key of the same run.
func TestRunKey(t *testing.T) {
	runKey := func(src string, in fingerprint.Inputs) fingerprint.Key {
		return fingerprint.Run(compile(t, src), in)
	}
	base := runKey(baseSrc, defaultInputs())
	if base != runKey(baseSrc, defaultInputs()) {
		t.Fatal("same inputs produced different run keys")
	}
	if base != runKey("// comment\n\n"+baseSrc, defaultInputs()) {
		t.Fatal("position-only change invalidated the run key")
	}
	if base == runKey(calleeChanged, defaultInputs()) {
		t.Fatal("program change did not change the run key")
	}
	changed := defaultInputs()
	changed.Schedules = []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 2}}
	if base == runKey(baseSrc, changed) {
		t.Fatal("schedule change did not change the run key")
	}
	changed = defaultInputs()
	changed.Retries = 2
	if base == runKey(baseSrc, changed) {
		t.Fatal("retry-budget change did not change the run key")
	}
	// A run key must never alias a loop key: both share a key namespace
	// shape (32 hex digits), and the fuzz corpus mixes them as dedup keys.
	for loop := 0; loop < 2; loop++ {
		if base == keyOf(t, baseSrc, loop, defaultInputs()) {
			t.Fatalf("run key collides with loop %d key", loop)
		}
	}
}

// TestSharedProgramWalk: every loop key of one program, computed from
// several goroutines that share its memoized program walk, equals the key
// computed on a fresh compilation. Run under -race.
func TestSharedProgramWalk(t *testing.T) {
	prog := compile(t, baseSrc)
	var insts []*instrument.Instrumented
	var want []fingerprint.Key
	for loop := 0; loop < 2; loop++ {
		inst, err := instrument.Loop(prog, "main", loop)
		if err != nil {
			t.Fatalf("instrument: %v", err)
		}
		insts = append(insts, inst)
		want = append(want, keyOf(t, baseSrc, loop, defaultInputs()))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for loop, inst := range insts {
				if got := fingerprint.Loop(prog, "main", loop, inst, defaultInputs()); got != want[loop] {
					t.Errorf("loop %d: key %s, want %s", loop, got, want[loop])
				}
			}
		}()
	}
	wg.Wait()
}

// TestLoopKeyMatchesSeparated: the key of an instrumented loop, whose
// separation was computed on the clone, equals the key the analysis
// computes from the separation on the program itself before any clone
// exists, for every separable loop of baseSrc and two NPB proxies.
func TestLoopKeyMatchesSeparated(t *testing.T) {
	progs := []*ir.Program{compile(t, baseSrc)}
	for _, name := range []string{"EP", "IS"} {
		prog, err := npb.SpecByName(name).Compile()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	checked := 0
	for _, prog := range progs {
		for _, fn := range prog.Funcs {
			_, loops := cfg.LoopsOf(fn)
			for _, loop := range loops {
				sep, err := instrument.Separate(prog, fn.Name, loop.Index)
				if err != nil {
					continue
				}
				inst, err := instrument.Loop(prog, fn.Name, loop.Index)
				if err != nil {
					t.Fatalf("%s: Separate succeeded, Loop failed: %v", loop.ID(), err)
				}
				want := fingerprint.Separated(prog, fn.Name, loop.Index, sep, defaultInputs())
				if got := fingerprint.Loop(prog, fn.Name, loop.Index, inst, defaultInputs()); got != want {
					t.Errorf("%s: instrumented key %s, separation key %s", loop.ID(), got, want)
				}
				checked++
			}
		}
	}
	if checked < 10 {
		t.Fatalf("compared %d loops, want at least 10", checked)
	}
}

// TestPositionInsensitive: formatting-only source changes (moved lines,
// comments) shift positions but not structure; the key must not change.
func TestPositionInsensitive(t *testing.T) {
	shifted := "// leading comment\n\n\n" + baseSrc
	a := keyOf(t, baseSrc, 0, defaultInputs())
	b := keyOf(t, shifted, 0, defaultInputs())
	if a != b {
		t.Fatalf("position-only change invalidated the key: %s vs %s", a, b)
	}
}

// TestPinnedKeys pins the literal Loop and Run keys of one fixed program.
// A change to the hash walk or the tag numbering changes every key and
// orphans every on-disk cache entry, so it must come with a Version bump;
// only then are these literals recomputed.
func TestPinnedKeys(t *testing.T) {
	const pinnedVersion = 5
	if fingerprint.Version != pinnedVersion {
		t.Fatalf("Version is %d but the keys below were computed at %d; recompute them",
			fingerprint.Version, pinnedVersion)
	}
	if got, want := keyOf(t, baseSrc, 0, defaultInputs()).String(), "3f3b4ab78b0807fe35171798671764e1"; got != want {
		t.Errorf("Loop key = %s, want %s: the walk changed without a Version bump", got, want)
	}
	if got, want := fingerprint.Run(compile(t, baseSrc), defaultInputs()).String(), "628ed0b07c1cdd5150875e05c1fb39b1"; got != want {
		t.Errorf("Run key = %s, want %s: the walk changed without a Version bump", got, want)
	}
}
