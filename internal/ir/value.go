package ir

import (
	"fmt"
	"math"
	"strings"

	"dca/internal/types"
)

// ValKind classifies runtime values.
type ValKind int

// Value kinds.
const (
	KindNil ValKind = iota // zero pointer/array reference
	KindInt
	KindFloat
	KindBool
	KindString
	KindRef // reference to a heap Object
)

// Value is a MiniC runtime value: 24 bytes with one pointer word, so
// registers, heap elements and constants copy cheaply and the garbage
// collector scans one word per value. Ints and bools (0/1) live in I, and so
// do floats, as their IEEE-754 bits (read them with Float). Ref points to the
// heap Object of a KindRef value, or, for KindString, to an immutable Object
// holding the text in Str (read it with Str); the empty string has a nil Ref.
type Value struct {
	Kind ValKind
	I    int64
	Ref  *Object
}

// IntVal makes an integer value.
func IntVal(v int64) Value { return Value{Kind: KindInt, I: v} }

// FloatVal makes a floating-point value.
func FloatVal(v float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(v))} }

// Float returns the number a KindFloat value holds, bit for bit as stored.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// BoolVal makes a boolean value.
func BoolVal(v bool) Value {
	if v {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// StringVal makes a string value. The text is held in an Object of its own
// that no one writes; "" needs none.
func StringVal(v string) Value {
	if v == "" {
		return Value{Kind: KindString}
	}
	return Value{Kind: KindString, Ref: &Object{Str: v}}
}

// Str returns the text a KindString value holds.
func (v Value) Str() string {
	if v.Ref == nil {
		return ""
	}
	return v.Ref.Str
}

// RefVal makes a heap reference value.
func RefVal(o *Object) Value { return Value{Kind: KindRef, Ref: o} }

// NilVal makes the nil reference value.
func NilVal() Value { return Value{Kind: KindNil} }

// Bool reports the truth of a KindBool value.
func (v Value) Bool() bool { return v.Kind == KindBool && v.I != 0 }

// IsNilRef reports whether the value is a nil reference.
func (v Value) IsNilRef() bool { return v.Kind == KindNil || (v.Kind == KindRef && v.Ref == nil) }

// Equal reports shallow equality: scalars by value, references by identity.
func (v Value) Equal(u Value) bool {
	if v.IsNilRef() || u.IsNilRef() {
		return v.IsNilRef() && u.IsNilRef()
	}
	if v.Kind != u.Kind {
		return false
	}
	switch v.Kind {
	case KindInt, KindBool:
		return v.I == u.I
	case KindFloat:
		return v.Float() == u.Float()
	case KindString:
		return v.Str() == u.Str()
	case KindRef:
		return v.Ref == u.Ref
	}
	return true
}

func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float())
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindString:
		return fmt.Sprintf("%q", v.Str())
	case KindRef:
		if v.Ref == nil {
			return "nil"
		}
		return fmt.Sprintf("&%s#%d", v.Ref.TypeName, v.Ref.ID)
	}
	return "?"
}

// ZeroValue returns the zero value of a semantic type.
func ZeroValue(t *types.Type) Value {
	switch t.Kind {
	case types.Int:
		return IntVal(0)
	case types.Float:
		return FloatVal(0)
	case types.Bool:
		return BoolVal(false)
	case types.String:
		return StringVal("")
	}
	return NilVal()
}

// Object is a heap object: either a struct instance (TypeName = struct name,
// one element per field) or an array (TypeName = "[]T"). Object identity —
// the Go pointer — is the address used by dependence profiling; ID is a
// stable allocation number used in printing and snapshots.
//
// A string value's text lives in an Object too, in Str with every other field
// zero. Such an Object is never written, never loaded or stored through
// (those need a KindRef base) and has no identity a program can observe: two
// strings are equal when their texts are.
type Object struct {
	ID       int64
	TypeName string
	Struct   *types.StructInfo // nil for arrays
	Elem     *types.Type       // element type for arrays, nil for structs
	Elems    []Value
	Str      string // a KindString value's text
}

// NewStructObject allocates a zeroed struct instance.
func NewStructObject(id int64, si *types.StructInfo) *Object {
	o := &Object{ID: id, TypeName: si.Name, Struct: si, Elems: make([]Value, len(si.Fields))}
	for i, f := range si.Fields {
		o.Elems[i] = ZeroValue(f.Type)
	}
	return o
}

// NewArrayObject allocates a zeroed array of n elements.
func NewArrayObject(id int64, elem *types.Type, n int) *Object {
	o := &Object{ID: id, TypeName: "[]" + elem.String(), Elem: elem, Elems: make([]Value, n)}
	z := ZeroValue(elem)
	for i := range o.Elems {
		o.Elems[i] = z
	}
	return o
}

// Len returns the number of elements/fields.
func (o *Object) Len() int { return len(o.Elems) }

// FieldName returns a printable name for element i.
func (o *Object) FieldName(i int) string {
	if o.Struct != nil && i >= 0 && i < len(o.Struct.Fields) {
		return o.Struct.Fields[i].Name
	}
	return fmt.Sprintf("[%d]", i)
}

func (o *Object) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d{", o.TypeName, o.ID)
	for i, e := range o.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		if o.Struct != nil {
			b.WriteString(o.FieldName(i))
			b.WriteString(": ")
		}
		b.WriteString(e.String())
	}
	b.WriteString("}")
	return b.String()
}
