package array

import (
	"strings"
	"testing"
)

func TestScalarIsRankZero(t *testing.T) {
	s := Scalar(7)
	if s.Dim() != 0 {
		t.Fatalf("scalar rank = %d, want 0", s.Dim())
	}
	if len(s.Shape()) != 0 {
		t.Fatalf("scalar shape = %v, want empty", s.Shape())
	}
	if s.ScalarValue() != 7 {
		t.Fatalf("scalar value = %d", s.ScalarValue())
	}
	if s.Size() != 1 {
		t.Fatalf("scalar size = %d", s.Size())
	}
}

func TestNewFillAndAt(t *testing.T) {
	a := New([]int{3, 5}, 42)
	if a.Dim() != 2 || a.Size() != 15 {
		t.Fatalf("dim=%d size=%d", a.Dim(), a.Size())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if a.At(i, j) != 42 {
				t.Fatalf("a[%d,%d] = %d", i, j, a.At(i, j))
			}
		}
	}
}

// New must not compare elements with ==: a slice, or a struct holding one,
// is a legal element type and panics when compared through an interface.
func TestNewUncomparableElement(t *testing.T) {
	a := New([]int{2}, []int{1})
	if a.Size() != 2 || len(a.At(0)) != 1 || a.At(1)[0] != 1 {
		t.Fatalf("slice elements: %v", a.Data())
	}
	if z := New([]int{2}, []int(nil)); z.At(1) != nil {
		t.Fatalf("nil fill: %v", z.Data())
	}
	type cell struct {
		n    int
		opts []bool
	}
	b := New([]int{2, 2}, cell{n: 3, opts: []bool{true}})
	if got := b.At(1, 1); got.n != 3 || len(got.opts) != 1 {
		t.Fatalf("struct elements: %+v", b.Data())
	}
	if z := New([]int{2}, cell{}); z.At(0).opts != nil || z.At(0).n != 0 {
		t.Fatalf("zero struct fill: %+v", z.Data())
	}
}

func TestFromSliceRowMajor(t *testing.T) {
	a := FromSlice([]int{2, 3}, []int{1, 2, 3, 4, 5, 6})
	if a.At(0, 0) != 1 || a.At(0, 2) != 3 || a.At(1, 0) != 4 || a.At(1, 2) != 6 {
		t.Fatalf("row-major layout broken: %v", a)
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer wantShapePanic(t, "FromSlice")
	FromSlice([]int{2, 2}, []int{1, 2, 3})
}

func TestVector(t *testing.T) {
	v := Vector(1, 2, 3)
	if v.Dim() != 1 || v.At(1) != 2 {
		t.Fatalf("vector broken: %v", v)
	}
}

func TestSetAndWithAt(t *testing.T) {
	a := New([]int{2, 2}, 0)
	a.Set(9, 1, 1)
	if a.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
	b := a.WithAt(5, 0, 0)
	if b.At(0, 0) != 5 || a.At(0, 0) != 0 {
		t.Fatal("WithAt must not mutate the receiver")
	}
	if b.At(1, 1) != 9 {
		t.Fatal("WithAt lost other elements")
	}
}

func TestSelPrefixSubarray(t *testing.T) {
	a := FromSlice([]int{2, 3}, []int{1, 2, 3, 4, 5, 6})
	row := a.Sel(1)
	if row.Dim() != 1 || row.At(0) != 4 || row.At(2) != 6 {
		t.Fatalf("Sel(1) = %v", row)
	}
	cell := a.Sel(0, 2)
	if cell.Dim() != 0 || cell.ScalarValue() != 3 {
		t.Fatalf("Sel(0,2) = %v", cell)
	}
	whole := a.Sel()
	if !Equal(whole, a) {
		t.Fatal("Sel() must return the whole array")
	}
	// Sel returns a copy: mutating it must not affect the original.
	row.Set(99, 0)
	if a.At(1, 0) != 4 {
		t.Fatal("Sel aliases the source")
	}
}

func TestSelBoundsPanics(t *testing.T) {
	a := New([]int{2, 2}, 0)
	defer wantShapePanic(t, "Sel")
	a.Sel(2)
}

func TestOffsetPanics(t *testing.T) {
	a := New([]int{2, 2}, 0)
	defer wantShapePanic(t, "Offset")
	a.At(0) // partial index is invalid for At
}

func TestReshape(t *testing.T) {
	a := Iota(6)
	m := a.Reshape([]int{2, 3})
	if m.At(1, 2) != 5 {
		t.Fatalf("reshape broken: %v", m)
	}
	defer wantShapePanic(t, "Reshape")
	a.Reshape([]int{4})
}

func TestCloneIndependence(t *testing.T) {
	a := Iota(3)
	b := a.Clone()
	b.Set(99, 0)
	if a.At(0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Iota(3), Vector(0, 1, 2)) {
		t.Fatal("equal arrays reported unequal")
	}
	if Equal(Iota(3), Iota(4)) {
		t.Fatal("different shapes reported equal")
	}
	if Equal(Vector(1, 2), Vector(1, 3)) {
		t.Fatal("different data reported equal")
	}
	if Equal(Iota(1), Scalar(0)) {
		t.Fatal("[1]-vector equals scalar")
	}
}

func TestStringForms(t *testing.T) {
	if got := Scalar(5).String(); got != "5" {
		t.Fatalf("scalar string = %q", got)
	}
	if got := Vector(0, 42, 0).String(); got != "[0,42,0]" {
		t.Fatalf("vector string = %q", got)
	}
	m := FromSlice([]int{2, 2}, []int{1, 2, 3, 4}).String()
	if !strings.Contains(m, "[1,2]") || !strings.Contains(m, "[3,4]") {
		t.Fatalf("matrix string = %q", m)
	}
	c := New([]int{2, 2, 2}, 0).String()
	if !strings.Contains(c, "reshape") {
		t.Fatalf("rank-3 string = %q", c)
	}
}

func TestIndexIterationHelpers(t *testing.T) {
	shape := []int{2, 3}
	iv := make([]int, 2)
	seen := 0
	for {
		if IndexToLinear(iv, shape) != seen {
			t.Fatalf("IndexToLinear(%v) = %d, want %d", iv, IndexToLinear(iv, shape), seen)
		}
		back := make([]int, 2)
		LinearToIndex(seen, shape, back)
		if back[0] != iv[0] || back[1] != iv[1] {
			t.Fatalf("LinearToIndex(%d) = %v, want %v", seen, back, iv)
		}
		seen++
		if !NextIndex(iv, shape) {
			break
		}
	}
	if seen != 6 {
		t.Fatalf("iterated %d indices, want 6", seen)
	}
}

func TestSizeNegativePanics(t *testing.T) {
	defer wantShapePanic(t, "Size")
	Size([]int{2, -1})
}

func wantShapePanic(t *testing.T, op string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("%s: expected panic", op)
	}
	if _, ok := r.(*ShapeError); !ok {
		t.Fatalf("%s: panic value %v is not *ShapeError", op, r)
	}
}
