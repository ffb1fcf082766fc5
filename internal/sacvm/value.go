package sacvm

import (
	"fmt"

	"repro/internal/array"
)

// ValueKind is the element type of a SaC value.
type ValueKind int

const (
	KindInt ValueKind = iota
	KindBool
	KindDouble
)

func (k ValueKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	default:
		return "double"
	}
}

// Value is a SaC value: an n-dimensional array of int, bool or double.
// Scalars are rank-0 arrays (§2).  Exactly one of I, B, D is non-nil.
type Value struct {
	Kind ValueKind
	I    *array.Array[int]
	B    *array.Array[bool]
	D    *array.Array[float64]
}

// IntValue wraps an int array.
func IntValue(a *array.Array[int]) Value { return Value{Kind: KindInt, I: a} }

// BoolValue wraps a bool array.
func BoolValue(a *array.Array[bool]) Value { return Value{Kind: KindBool, B: a} }

// DoubleValue wraps a float64 array.
func DoubleValue(a *array.Array[float64]) Value { return Value{Kind: KindDouble, D: a} }

// IntScalar returns a rank-0 int value.
func IntScalar(v int) Value { return IntValue(array.Scalar(v)) }

// BoolScalar returns a rank-0 bool value.
func BoolScalar(v bool) Value { return BoolValue(array.Scalar(v)) }

// DoubleScalar returns a rank-0 double value.
func DoubleScalar(v float64) Value { return DoubleValue(array.Scalar(v)) }

// IntVector returns a rank-1 int value.
func IntVector(vs ...int) Value { return IntValue(array.Vector(vs...)) }

// elem is the set of element types.  Value is the one place the element
// type is a runtime value (Kind); below it every operation is written once
// over a type parameter and reaches its array through arr and val.
type elem interface{ int | bool | float64 }

// anyArray is what Value's accessors need of the array, whatever its
// element type.
type anyArray interface {
	Shape() []int
	Dim() int
	Size() int
	String() string
}

// array returns the one array v holds.
func (v Value) array() anyArray {
	switch v.Kind {
	case KindInt:
		return v.I
	case KindBool:
		return v.B
	default:
		return v.D
	}
}

// arr returns v's array; T must be the element type v.Kind names.
func arr[T elem](v Value) *array.Array[T] { return v.array().(*array.Array[T]) }

// val wraps an array of any element type.
func val[T elem](a *array.Array[T]) Value {
	switch a := any(a).(type) {
	case *array.Array[int]:
		return IntValue(a)
	case *array.Array[bool]:
		return BoolValue(a)
	}
	return DoubleValue(any(a).(*array.Array[float64]))
}

// Shape returns the value's shape vector.
func (v Value) Shape() []int { return v.array().Shape() }

// Dim returns the value's rank.
func (v Value) Dim() int { return v.array().Dim() }

// Size returns the element count.
func (v Value) Size() int { return v.array().Size() }

// IsScalar reports rank 0.
func (v Value) IsScalar() bool { return v.Dim() == 0 }

// AsInt returns the value as an int scalar.
func (v Value) AsInt(at Pos) (int, error) {
	if v.Kind != KindInt || !v.IsScalar() {
		return 0, errf(at, "expected int scalar, got %s", v.TypeString())
	}
	return v.I.ScalarValue(), nil
}

// AsBool returns the value as a bool scalar.
func (v Value) AsBool(at Pos) (bool, error) {
	if v.Kind != KindBool || !v.IsScalar() {
		return false, errf(at, "expected bool scalar, got %s", v.TypeString())
	}
	return v.B.ScalarValue(), nil
}

// AsIntVector returns the value as a flat []int; scalars become 1-vectors.
func (v Value) AsIntVector(at Pos) ([]int, error) {
	if v.Kind != KindInt {
		return nil, errf(at, "expected int vector, got %s", v.TypeString())
	}
	if v.I.Dim() > 1 {
		return nil, errf(at, "expected int vector, got rank-%d array", v.I.Dim())
	}
	return append([]int(nil), v.I.Data()...), nil
}

// TypeString renders the value's type, e.g. int[3,7] or bool.
func (v Value) TypeString() string {
	s := v.Shape()
	if len(s) == 0 {
		return v.Kind.String()
	}
	return fmt.Sprintf("%s%v", v.Kind, s)
}

// Equal reports deep equality (kind, shape, elements).
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return array.Equal(v.I, w.I)
	case KindBool:
		return array.Equal(v.B, w.B)
	default:
		return array.Equal(v.D, w.D)
	}
}

// String renders the value like SaC output.
func (v Value) String() string { return v.array().String() }
