package depprof_test

import (
	"errors"
	"strings"
	"testing"

	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/interp"
	"dca/internal/irbuild"
)

func analyze(t *testing.T, src string) *depprof.Report {
	t.Helper()
	prog, err := irbuild.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep, err := depprof.Analyze(prog, depprof.DefaultPolicy(), 0)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

func expectParallel(t *testing.T, rep *depprof.Report, fn string, idx int, want bool) {
	t.Helper()
	v := rep.Verdict(fn, idx)
	if v == nil {
		t.Fatalf("no verdict for %s/L%d:\n%s", fn, idx, rep)
	}
	if v.Parallel != want {
		t.Errorf("%s/L%d parallel = %v (%v), want %v", fn, idx, v.Parallel, v.Reasons, want)
	}
}

// TestArrayMapParallel: Fig. 1(a) — dependence profiling succeeds.
func TestArrayMapParallel(t *testing.T) {
	rep := analyze(t, `
func main() {
	var a []int = new [32]int;
	for (var i int = 0; i < 32; i++) { a[i]++; }
	print(a[0]);
}`)
	expectParallel(t, rep, "main", 0, true)
}

// TestPLDSMapSerial: Fig. 1(b) — the cross-iteration RAW on ptr defeats
// dependence profiling even with perfect dynamic information. This is the
// paper's central motivating contrast.
func TestPLDSMapSerial(t *testing.T) {
	rep := analyze(t, `
struct Node { val int; next *Node; }
func main() {
	var head *Node = nil;
	for (var i int = 0; i < 8; i++) {
		var n *Node = new Node;
		n->val = i;
		n->next = head;
		head = n;
	}
	var ptr *Node = head;
	while (ptr != nil) {
		ptr->val++;
		ptr = ptr->next;
	}
	print(head->val);
}`)
	expectParallel(t, rep, "main", 1, false)
	v := rep.Verdict("main", 1)
	found := false
	for _, r := range v.Reasons {
		if r == `loop-carried scalar dependence on "ptr"` {
			found = true
		}
	}
	if !found {
		t.Errorf("expected carried-scalar reason on ptr, got %v", v.Reasons)
	}
}

func TestScalarReductionParallel(t *testing.T) {
	rep := analyze(t, `
func main() {
	var a []int = new [32]int;
	for (var i int = 0; i < 32; i++) { a[i] = i; }
	var s int = 0;
	for (var i int = 0; i < 32; i++) { s += a[i]; }
	print(s);
}`)
	expectParallel(t, rep, "main", 1, true)
}

func TestMinMaxReductionPolicy(t *testing.T) {
	src := `
func main() {
	var a []int = new [32]int;
	for (var i int = 0; i < 32; i++) { a[i] = (i * 17) % 31; }
	var m int = 0;
	for (var i int = 0; i < 32; i++) {
		if (a[i] > m) { m = a[i]; }
	}
	print(m);
}`
	rep := analyze(t, src)
	expectParallel(t, rep, "main", 1, true)

	// Without min/max recognition (the DiscoPoP-style policy) the loop is
	// serial.
	prog, err := irbuild.Compile("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	pol := depprof.DefaultPolicy()
	pol.MinMaxScalars = false
	rep2, err := depprof.Analyze(prog, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectParallel(t, rep2, "main", 1, false)
}

func TestHistogramReduction(t *testing.T) {
	rep := analyze(t, `
func main() {
	var b []int = new [64]int;
	for (var i int = 0; i < 64; i++) { b[i] = (i * 7) % 8; }
	var h []int = new [8]int;
	for (var i int = 0; i < 64; i++) { h[b[i]] += 1; }
	print(h[0]);
}`)
	expectParallel(t, rep, "main", 1, true)
}

func TestTrueRecurrenceSerial(t *testing.T) {
	rep := analyze(t, `
func main() {
	var a []int = new [16]int;
	a[0] = 1;
	for (var i int = 1; i < 16; i++) { a[i] = a[i-1] + 1; }
	print(a[15]);
}`)
	expectParallel(t, rep, "main", 0, false)
	v := rep.Verdict("main", 0)
	if !v.Executed {
		t.Error("loop should be marked executed")
	}
}

func TestNotExercisedLoop(t *testing.T) {
	rep := analyze(t, `
func main() {
	var n int = 0;
	var a []int = new [4]int;
	for (var i int = 0; i < n; i++) { a[i] = i; }
	print(a[0]);
}`)
	v := rep.Verdict("main", 0)
	if v == nil {
		t.Fatal("missing verdict")
	}
	if v.Parallel || v.Executed {
		t.Errorf("unexercised loop must not be reported: parallel=%v executed=%v", v.Parallel, v.Executed)
	}
}

func TestIOLoopSerial(t *testing.T) {
	rep := analyze(t, `
func main() {
	for (var i int = 0; i < 4; i++) { print(i); }
}`)
	expectParallel(t, rep, "main", 0, false)
}

// TestPrivatizationWriteFirst: a scratch array written before read each
// iteration passes the dynamic write-first test.
func TestPrivatizationWriteFirst(t *testing.T) {
	rep := analyze(t, `
func main() {
	var out []int = new [8]int;
	var tmp []int = new [4]int;
	for (var i int = 0; i < 8; i++) {
		for (var j int = 0; j < 4; j++) { tmp[j] = i * j; }
		var s int = 0;
		for (var j int = 0; j < 4; j++) { s += tmp[j]; }
		out[i] = s;
	}
	print(out[7]);
}`)
	// The outer loop carries WAR/WAW on tmp, but every iteration writes tmp
	// before reading it: privatizable, hence parallel.
	expectParallel(t, rep, "main", 0, true)
}

// TestPrivatizationFailure: read-before-write across iterations is fatal.
func TestPrivatizationFailure(t *testing.T) {
	rep := analyze(t, `
func main() {
	var buf []int = new [4]int;
	var out []int = new [8]int;
	for (var i int = 0; i < 8; i++) {
		out[i] = buf[0];
		buf[0] = i;
	}
	print(out[7]);
}`)
	expectParallel(t, rep, "main", 0, false)
}

// TestWorklistSerial: the BFS-style worklist loop is serial for dependence
// profiling (pops mutate the list the loop condition reads).
func TestWorklistSerial(t *testing.T) {
	rep := analyze(t, `
struct Node { val int; next *Node; }
struct List { head *Node; size int; }
func main() {
	var wl *List = new List;
	for (var i int = 0; i < 8; i++) {
		var n *Node = new Node;
		n->val = i;
		n->next = wl->head;
		wl->head = n;
		wl->size++;
	}
	var total int = 0;
	while (wl->size > 0) {
		var cur *Node = wl->head;
		wl->head = cur->next;
		wl->size--;
		total += cur->val;
	}
	print(total);
}`)
	expectParallel(t, rep, "main", 1, false)
}

// TestCalleeAccessesAttributed: dependences inside called functions belong
// to the calling loop too.
func TestCalleeAccessesAttributed(t *testing.T) {
	rep := analyze(t, `
func touch(a []int, i int) { a[0] = a[0] + i; }
func main() {
	var a []int = new [4]int;
	for (var i int = 0; i < 8; i++) { touch(a, i); }
	print(a[0]);
}`)
	// Every iteration reads and writes a[0] through the callee: carried RAW
	// (and the op= pattern is split across instructions in a callee, still
	// recognized as a reduction group since Load/BinOp/Store share a block).
	v := rep.Verdict("main", 0)
	if v == nil {
		t.Fatal("missing verdict")
	}
	if !v.Executed {
		t.Error("loop must be executed")
	}
	// a[0] += i inside the callee forms a reduction group; dependence
	// profiling accepts it.
	if !v.Parallel {
		t.Errorf("callee reduction should be accepted, reasons: %v", v.Reasons)
	}
}

// TestTraceTruncatedOnBudget: running out of the step budget is an
// analysis-resource limit, not a program fault — Trace keeps the partial
// profile and marks it truncated instead of returning an error.
func TestTraceTruncatedOnBudget(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func main() {
	var a []int = new [1000]int;
	for (var i int = 0; i < 1000; i++) { a[i] = i; }
	print(a[999]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := depprof.Trace(prog, 50)
	if err != nil {
		t.Fatalf("budget exhaustion must not be an error, got %v", err)
	}
	if !prof.Truncated {
		t.Error("profile should be marked truncated")
	}
	if prof.Steps == 0 {
		t.Error("truncated profile should still report steps executed")
	}
	rep, err := depprof.Analyze(prog, depprof.DefaultPolicy(), 50)
	if err != nil {
		t.Fatalf("Analyze under budget: %v", err)
	}
	if !rep.Truncated {
		t.Error("report should mirror Profile.Truncated")
	}
	if !strings.Contains(rep.String(), "truncated") {
		t.Errorf("report text should mention truncation:\n%s", rep)
	}
}

// TestTraceFaultClassified: a program fault during tracing is a real error,
// clearly distinguished from a budget stop.
func TestTraceFaultClassified(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func main() {
	var z int = 0;
	print(10 / z);
}`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = depprof.Trace(prog, 0)
	if err == nil {
		t.Fatal("faulting program must error")
	}
	if !strings.Contains(err.Error(), "faulted") {
		t.Errorf("err = %v, want fault wording", err)
	}
	if errors.Is(err, interp.ErrBudget) {
		t.Errorf("fault misclassified as budget: %v", err)
	}
}

func TestCoverageSteps(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func main() {
	var a []int = new [64]int;
	for (var i int = 0; i < 64; i++) { a[i] = i; }
	print(a[63]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := depprof.Trace(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := depprof.LoopKey{Fn: "main", Index: 0}
	if prof.LoopSteps[key] == 0 {
		t.Error("expected loop steps attributed to the loop")
	}
	if prof.Steps <= prof.LoopSteps[key] {
		t.Errorf("total steps %d must exceed loop steps %d", prof.Steps, prof.LoopSteps[key])
	}
	lp := prof.Loops[key]
	if lp.Invocations != 1 || lp.Iterations != 65 {
		t.Errorf("invocations=%d iterations=%d, want 1 and 65 (header entries)", lp.Invocations, lp.Iterations)
	}
}

// TestReductionGroupsAreProgramWide: reduction groups are numbered per
// function, so inc's h[k] += 1 and dbl's h[k] *= 2 both carry group 1.
// Merged into one table, the two look like one op= reduction and the loop
// alternating them reads as parallel; the reverse schedule changes its
// output, so it carries a true dependence.
func TestReductionGroupsAreProgramWide(t *testing.T) {
	rep := analyze(t, incDblSrc)
	expectParallel(t, rep, "main", 0, false)
	if v := rep.Verdict("main", 0); len(v.Reasons) != 1 || v.Reasons[0] != "loop-carried true dependence on 1 address(es)" {
		t.Errorf("reasons = %q, want the carried true dependence on h[0]", v.Reasons)
	}
}

// incDblSrc calls two impure functions from one loop, inc before dbl in
// block order.
const incDblSrc = `
func inc(h []int, k int) { h[k] = h[k] + 1; }
func dbl(h []int, k int) { h[k] = h[k] * 2; }
func main() {
	var h []int = new [4]int;
	for (var i int = 0; i < 8; i++) { if (i % 2 == 0) { inc(h, 0); } else { dbl(h, 0); } }
	print(h[0]);
}`

// TestImpureCalleeReasonIsReproducible: under the DiscoPoP policy a loop
// calling two impure functions is rejected naming the first callee in
// block order, on every analysis.
func TestImpureCalleeReasonIsReproducible(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", incDblSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := depprof.Trace(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 50; run++ {
		v := depprof.AnalyzeProfile(prog, prof, discopop.Policy()).Verdict("main", 0)
		if v == nil || len(v.Reasons) != 1 || v.Reasons[0] != `call to "inc" crosses computational units` {
			t.Fatalf("run %d: verdict %+v, want the one reason naming inc", run, v)
		}
	}
}

// TestWARFromEarlierReaders: iterations 0-2 read a[0] and iteration 3 reads
// and then writes it, so the write carries an anti-dependence from the
// earlier readers even though the writing iteration read the cell too. The
// reverse schedule changes the output. Both profilers must see a failed
// privatization and report the loop serial.
func TestWARFromEarlierReaders(t *testing.T) {
	prog, err := irbuild.Compile("t.mc", `
func main() {
	var a []int = new [4]int; var b []int = new [4]int; a[0] = 5;
	for (var i int = 0; i < 4; i++) { b[i] = a[0]; if (i == 3) { a[0] = 7; } }
	print(b[0]); print(b[3]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := depprof.Trace(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lp := prof.Loops[depprof.LoopKey{Fn: "main", Index: 0}]; !lp.NeedPriv || lp.FatalRAW {
		t.Errorf("profile: NeedPriv=%v FatalRAW=%v, want a carried anti-dependence only", lp.NeedPriv, lp.FatalRAW)
	}
	const want = "1 address(es) fail the write-first privatization test"
	for name, rep := range map[string]*depprof.Report{
		"DepProf":  depprof.AnalyzeProfile(prog, prof, depprof.DefaultPolicy()),
		"DiscoPoP": discopop.AnalyzeProfile(prog, prof).Loops,
	} {
		v := rep.Verdict("main", 0)
		if v == nil || v.Parallel || len(v.Reasons) != 1 || v.Reasons[0] != want {
			t.Errorf("%s: verdict %+v, want serial with the one reason %q", name, v, want)
		}
	}
}
