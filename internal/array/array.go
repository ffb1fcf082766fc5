// Package array implements the SaC array substrate of the paper (§2):
// state-less n-dimensional arrays over int, bool and float64 elements, with
// SaC's structural primitives (dim, shape, selection including subarray
// selection) and the with-loop array comprehensions (genarray, modarray,
// fold) executed data-parallel on an internal/sched pool.
//
// Semantics follow §2 of the paper:
//
//   - scalars are rank-0 arrays with an empty shape vector;
//   - a with-loop may have several generators over rectangular index sets;
//     when generators overlap, later generators win;
//   - genarray's result shape is given explicitly and elements not covered
//     by any generator take the default value;
//   - modarray copies the referred array and overwrites generator-covered
//     elements.
//
// Arrays are values in the SaC sense: every operation returns a fresh array
// and never aliases input storage (Clone-on-build) — except a shape vector,
// which is written only while it is built and copied on the way in (New,
// FromSlice, Reshape) and out (Shape): an array derived from one of the same
// shape points at the same vector, so a functional update allocates the
// Array and its data, no more (shape_test.go).  Shape errors are
// programmer errors and panic with a *ShapeError, mirroring the checks SaC
// performs at compile time.
package array

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// ShapeError reports an invalid shape, index, or bound combination.
type ShapeError struct {
	Op  string
	Msg string
}

func (e *ShapeError) Error() string { return "array: " + e.Op + ": " + e.Msg }

func shapeErrf(op, format string, args ...any) *ShapeError {
	return &ShapeError{Op: op, Msg: fmt.Sprintf(format, args...)}
}

// Array is an immutable-by-convention n-dimensional array in row-major
// layout.  A rank-0 Array holds exactly one element and models a SaC scalar.
type Array[T any] struct {
	shape []int
	data  []T
	iv    [fixedRank]int // what the with-loops writing this array inline hand their Body (ModarrayOwned)
}

// Size returns the number of elements described by a shape vector.  An empty
// shape has size 1 (a scalar).
func Size(shape []int) int {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(shapeErrf("Size", "negative extent in shape %v", shape))
		}
		n *= s
	}
	return n
}

// New returns an array of the given shape with every element set to fill.
// The shape slice is copied.
func New[T any](shape []int, fill T) *Array[T] {
	a := &Array[T]{shape: cloneInts(shape), data: make([]T, Size(shape))}
	// make zeroed the data already.  T need not be comparable (a slice, a
	// struct holding one), so "is fill the zero value" is asked of reflect.
	if !reflect.ValueOf(&fill).Elem().IsZero() {
		for i := range a.data {
			a.data[i] = fill
		}
	}
	return a
}

// FromSlice builds an array of the given shape from row-major data.  The
// data slice is copied.
func FromSlice[T any](shape []int, data []T) *Array[T] {
	if Size(shape) != len(data) {
		panic(shapeErrf("FromSlice", "shape %v needs %d elements, got %d", shape, Size(shape), len(data)))
	}
	return &Array[T]{shape: cloneInts(shape), data: append([]T(nil), data...)}
}

// Scalar returns a rank-0 array holding v.
func Scalar[T any](v T) *Array[T] {
	return &Array[T]{shape: nil, data: []T{v}}
}

// Vector returns a rank-1 array holding vs.
func Vector[T any](vs ...T) *Array[T] {
	return FromSlice([]int{len(vs)}, vs)
}

// Dim returns the rank of the array (SaC's dim()); 0 for scalars.
func (a *Array[T]) Dim() int { return len(a.shape) }

// Shape returns a copy of the shape vector (SaC's shape()).
func (a *Array[T]) Shape() []int { return cloneInts(a.shape) }

// Size returns the total number of elements.
func (a *Array[T]) Size() int { return len(a.data) }

// Data returns the row-major backing slice.  Callers must treat it as
// read-only; it is exposed for zero-copy consumption by schedulers and
// encoders.
func (a *Array[T]) Data() []T { return a.data }

// Clone returns a copy with storage of its own.
func (a *Array[T]) Clone() *Array[T] {
	return &Array[T]{shape: a.shape, data: append([]T(nil), a.data...)}
}

// ScalarValue returns the single element of a rank-0 array.
func (a *Array[T]) ScalarValue() T {
	if len(a.data) != 1 || len(a.shape) != 0 {
		panic(shapeErrf("ScalarValue", "array of shape %v is not a scalar", a.shape))
	}
	return a.data[0]
}

// Offset converts a full index vector to the row-major offset.
//
// The panic messages format a copy of iv: formatting iv itself would make it
// escape, and every At(i, j) would heap-allocate its index vector.
func (a *Array[T]) Offset(iv []int) int {
	if len(iv) != len(a.shape) {
		panic(shapeErrf("Offset", "index %v has rank %d, array has rank %d", cloneInts(iv), len(iv), len(a.shape)))
	}
	off := 0
	for d, i := range iv {
		if i < 0 || i >= a.shape[d] {
			panic(shapeErrf("Offset", "index %v out of bounds for shape %v", cloneInts(iv), a.shape))
		}
		off = off*a.shape[d] + i
	}
	return off
}

// At returns the element at the given full index vector.
func (a *Array[T]) At(iv ...int) T { return a.data[a.Offset(iv)] }

// Set writes the element at the given full index vector.  It mutates the
// receiver and is intended for array construction only; SaC-level code uses
// With-loops or With* helpers that copy first.
func (a *Array[T]) Set(v T, iv ...int) { a.data[a.Offset(iv)] = v }

// WithAt returns a copy of a with the element at iv replaced by v — the
// functional single-element update that `board[i,j] = k` denotes in SaC.
func (a *Array[T]) WithAt(v T, iv ...int) *Array[T] {
	off := a.Offset(iv) // an index out of range panics before anything is copied
	b := a.Clone()
	b.data[off] = v
	return b
}

// Sel implements SaC selection array[idx_vec]: the index vector may be a
// prefix of the rank, in which case the result is the selected subarray; a
// full-rank index yields a rank-0 (scalar) array.
func (a *Array[T]) Sel(iv ...int) *Array[T] {
	if len(iv) > len(a.shape) {
		panic(shapeErrf("Sel", "index %v longer than rank %d", cloneInts(iv), len(a.shape)))
	}
	off := 0
	for d, i := range iv {
		if i < 0 || i >= a.shape[d] {
			panic(shapeErrf("Sel", "index %v out of bounds for shape %v", cloneInts(iv), a.shape))
		}
		off = off*a.shape[d] + i
	}
	rest := a.shape[len(iv):]
	sz := Size(rest)
	off *= sz
	return &Array[T]{shape: rest, data: append([]T(nil), a.data[off:off+sz]...)}
}

// Reshape returns an array with the same data and a new shape of equal size.
func (a *Array[T]) Reshape(shape []int) *Array[T] {
	if Size(shape) != len(a.data) {
		panic(shapeErrf("Reshape", "cannot reshape %v (size %d) to %v (size %d)",
			a.shape, len(a.data), shape, Size(shape)))
	}
	return &Array[T]{shape: cloneInts(shape), data: append([]T(nil), a.data...)}
}

// Equal reports whether two arrays have identical shape and elements.
func Equal[T comparable](a, b *Array[T]) bool {
	return slices.Equal(a.shape, b.shape) && slices.Equal(a.data, b.data)
}

// String renders the array; vectors and matrices get SaC-like bracketed
// layout, higher ranks a flat dump with shape prefix.
func (a *Array[T]) String() string {
	switch len(a.shape) {
	case 0:
		return fmt.Sprint(a.data[0])
	case 1:
		var b strings.Builder
		b.WriteByte('[')
		for i, v := range a.data {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, v)
		}
		b.WriteByte(']')
		return b.String()
	case 2:
		var b strings.Builder
		b.WriteByte('[')
		rows, cols := a.shape[0], a.shape[1]
		for r := 0; r < rows; r++ {
			if r > 0 {
				b.WriteString(",\n ")
			}
			b.WriteByte('[')
			for c := 0; c < cols; c++ {
				if c > 0 {
					b.WriteByte(',')
				}
				fmt.Fprint(&b, a.data[r*cols+c])
			}
			b.WriteByte(']')
		}
		b.WriteByte(']')
		return b.String()
	default:
		return fmt.Sprintf("reshape(%v, %v)", a.shape, a.data)
	}
}

func cloneInts(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	return append([]int(nil), s...)
}
