package ir_test

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/types"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := irbuild.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestValueEquality(t *testing.T) {
	o := ir.NewArrayObject(1, types.IntType, 2)
	cases := []struct {
		a, b ir.Value
		want bool
	}{
		{ir.IntVal(3), ir.IntVal(3), true},
		{ir.IntVal(3), ir.IntVal(4), false},
		{ir.FloatVal(1.5), ir.FloatVal(1.5), true},
		{ir.BoolVal(true), ir.BoolVal(true), true},
		{ir.BoolVal(true), ir.IntVal(1), false},
		{ir.StringVal("a"), ir.StringVal("a"), true},
		// Equal texts in distinct objects; the empty string has none.
		{ir.StringVal(strings.Repeat("ab", 3)), ir.StringVal("ababab"), true},
		{ir.StringVal("ababab"), ir.StringVal("ababa"), false},
		{ir.ZeroValue(types.StringType), ir.StringVal(""), true},
		{ir.StringVal(""), ir.NilVal(), false},
		{ir.StringVal(""), ir.IntVal(0), false},
		{ir.FloatVal(math.NaN()), ir.FloatVal(math.NaN()), false},
		{ir.FloatVal(0), ir.FloatVal(math.Copysign(0, -1)), true},
		{ir.NilVal(), ir.NilVal(), true},
		{ir.NilVal(), ir.RefVal(nil), true}, // nil ref == nil
		{ir.RefVal(o), ir.RefVal(o), true},
		{ir.RefVal(o), ir.NilVal(), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: %s == %s -> %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// TestValueLayout pins the value layout every register, heap element and
// constant uses: a kind, one 64-bit word and one pointer.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(ir.Value{}); n != 24 {
		t.Errorf("sizeof(ir.Value) = %d, want 24", n)
	}
	if n := unsafe.Sizeof(ir.Operand{}); n != 32 {
		t.Errorf("sizeof(ir.Operand) = %d, want 32", n)
	}
}

// TestFloatRoundTrip: FloatVal stores a float's IEEE-754 bits and Float
// returns them unchanged, NaN payloads and signs included.
func TestFloatRoundTrip(t *testing.T) {
	bits := []uint64{
		0x7ff8000000000000, // quiet NaN
		0xfff8000000000000, // negative quiet NaN
		0x7ff0000000000001, // signalling NaN, lowest payload
		0x7ff4000000000abc, // signalling NaN, other payload
		0x7fffffffffffffff, // NaN, all payload bits
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x0000000000000000, // +0
		0x8000000000000000, // -0
		0x0000000000000001, // smallest subnormal
		0x800fffffffffffff, // largest negative subnormal
		0x0010000000000000, // smallest normal
		0x7fefffffffffffff, // largest finite
		math.Float64bits(math.Pi),
	}
	for _, b := range bits {
		v := ir.FloatVal(math.Float64frombits(b))
		if v.Kind != ir.KindFloat {
			t.Errorf("%#016x: kind %v", b, v.Kind)
		}
		if got := math.Float64bits(v.Float()); got != b {
			t.Errorf("%#016x: round trip gives %#016x", b, got)
		}
		if uint64(v.I) != b {
			t.Errorf("%#016x: stored word %#016x", b, uint64(v.I))
		}
	}
}

func TestZeroValues(t *testing.T) {
	if v := ir.ZeroValue(types.IntType); v.Kind != ir.KindInt || v.I != 0 {
		t.Errorf("zero int = %v", v)
	}
	if v := ir.ZeroValue(types.FloatType); v.Kind != ir.KindFloat || math.Float64bits(v.Float()) != 0 {
		t.Errorf("zero float = %v", v)
	}
	if v := ir.ZeroValue(types.StringType); v.Kind != ir.KindString || v.Str() != "" || v.IsNilRef() {
		t.Errorf("zero string = %v", v)
	}
	if v := ir.ZeroValue(&types.Type{Kind: types.Array, Elem: types.IntType}); !v.IsNilRef() {
		t.Errorf("zero array = %v", v)
	}
}

func TestObjects(t *testing.T) {
	si := types.NewStructInfo("P", []types.FieldInfo{
		{Name: "x", Type: types.IntType},
		{Name: "y", Type: types.FloatType},
	})
	o := ir.NewStructObject(7, si)
	if o.Len() != 2 || o.FieldName(0) != "x" || o.Elems[1].Kind != ir.KindFloat {
		t.Errorf("struct object = %v", o)
	}
	a := ir.NewArrayObject(8, types.BoolType, 3)
	if a.Len() != 3 || a.TypeName != "[]bool" {
		t.Errorf("array object = %v", a)
	}
	if s := o.String(); !strings.Contains(s, "P#7") || !strings.Contains(s, "x: 0") {
		t.Errorf("object string = %q", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	prog := compile(t, `
func f(a []int, n int) int {
	var s int = 0;
	for (var i int = 0; i < n; i++) {
		if (a[i] > 0) { s += a[i]; }
	}
	return s;
}
func main() { var a []int = new [4]int; print(f(a, 4)); }
`)
	fn := prog.Func("f")
	clone := fn.Clone()
	if err := clone.Verify(); err != nil {
		t.Fatalf("clone verify: %v", err)
	}
	// Structural equality of printouts.
	if fn.String() != clone.String() {
		t.Errorf("clone renders differently:\n%s\nvs\n%s", fn, clone)
	}
	// Mutating the clone must not affect the original.
	clone.Blocks[0].Instrs = nil
	if len(fn.Blocks[0].Instrs) == 0 {
		t.Error("clone shares instruction slices with original")
	}
	// Locals must be distinct objects.
	for i := range fn.Locals {
		if fn.Locals[i] == clone.Locals[i] {
			t.Fatalf("local %d shared between clone and original", i)
		}
	}
}

func TestProgramClone(t *testing.T) {
	prog := compile(t, `func main() { var x int = 1; print(x); }`)
	clone := prog.Clone()
	if err := clone.Verify(); err != nil {
		t.Fatal(err)
	}
	if clone.Func("main") == prog.Func("main") {
		t.Error("program clone shares functions")
	}
}

// TestMemo: concurrent first callers of one key all receive one artifact,
// keys of distinct types never collide, and clones start with an empty
// memo. Run under -race.
func TestMemo(t *testing.T) {
	prog := compile(t, `func main() { print(1); }`)
	type keyA struct{}
	type keyB struct{}
	got := make([]any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = prog.Memo(keyA{}, func() any { return new(int) })
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different artifact than caller 0", i)
		}
	}
	if v := prog.Memo(keyB{}, func() any { return "b" }); v != "b" {
		t.Errorf("keyB artifact = %v, want b", v)
	}
	for _, clone := range []*ir.Program{prog.Clone(), prog.CloneShared("main")} {
		built := false
		clone.Memo(keyA{}, func() any { built = true; return new(int) })
		if !built {
			t.Error("a clone served its source's memoized artifact")
		}
	}
}

func TestVerifyCatchesBadIR(t *testing.T) {
	fn := ir.NewFunc("bad", types.VoidType)
	b := fn.NewBlock("entry")
	// No terminator.
	if err := fn.Verify(); err == nil || !strings.Contains(err.Error(), "no terminator") {
		t.Errorf("err = %v", err)
	}
	b.Term = &ir.Ret{}
	if err := fn.Verify(); err != nil {
		t.Errorf("now valid, got %v", err)
	}
	// Foreign local.
	other := ir.NewFunc("other", types.VoidType)
	l := other.NewLocal("x", types.IntType)
	b.Append(&ir.Mov{Dst: l, Src: ir.IntOp(1)})
	if err := fn.Verify(); err == nil || !strings.Contains(err.Error(), "foreign local") {
		t.Errorf("err = %v", err)
	}
	b.Instrs = nil
	// Foreign block target.
	fb := other.NewBlock("fb")
	fb.Term = &ir.Ret{}
	b.Term = &ir.Goto{Target: fb}
	if err := fn.Verify(); err == nil || !strings.Contains(err.Error(), "foreign block") {
		t.Errorf("err = %v", err)
	}
}

func TestPrinterRoundtripInfo(t *testing.T) {
	prog := compile(t, `
struct N { v int; next *N; }
func main() {
	var p *N = new N;
	p->v = 1;
	var a []int = new [2]int;
	a[0] = p->v;
	print(a[0]);
}
`)
	s := prog.String()
	for _, want := range []string{"func main()", "new N", "->v", "[", "print", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
}

func TestBinKindFromString(t *testing.T) {
	for _, op := range []string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "==", "!=", "<", "<=", ">", ">="} {
		k, ok := ir.BinKindFromString(op)
		if !ok || k.String() != op {
			t.Errorf("roundtrip %q failed: %v %v", op, k, ok)
		}
	}
	if _, ok := ir.BinKindFromString("&&"); ok {
		t.Error("&& must not be an IR operator")
	}
}

// Property: shallow Equal is reflexive and symmetric for scalar values.
func TestValueEqualProperties(t *testing.T) {
	mk := func(kind uint8, i int64, f float64, s string) ir.Value {
		switch kind % 5 {
		case 0:
			return ir.IntVal(i)
		case 1:
			return ir.FloatVal(f)
		case 2:
			return ir.BoolVal(i%2 == 0)
		case 3:
			return ir.StringVal(s)
		}
		return ir.NilVal()
	}
	refl := func(kind uint8, i int64, f float64, s string) bool {
		v := mk(kind, i, f, s)
		return v.Equal(v)
	}
	sym := func(k1, k2 uint8, i1, i2 int64, f1, f2 float64, s1, s2 string) bool {
		a, b := mk(k1, i1, f1, s1), mk(k2, i2, f2, s2)
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
}
