package array

import (
	"context"

	"repro/internal/sched"
)

// SaC standard-library style structural operations (take, drop, rotate,
// reverse, transpose, tile).  In SaC these are defined as with-loops in the
// array module; here they are provided natively for the same purpose:
// "universally applicable array operations" (§2).  All follow SaC
// conventions: results are fresh arrays, negative take/drop counts select
// from the back.

// Take returns the first n slices along axis 0 (the last -n for n < 0).
func Take[T any](a *Array[T], n int) *Array[T] {
	if a.Dim() == 0 {
		panic(shapeErrf("Take", "cannot take from a scalar"))
	}
	ext := a.shape[0]
	k := n
	if k < 0 {
		k = -k
	}
	if k > ext {
		panic(shapeErrf("Take", "take %d exceeds extent %d", n, ext))
	}
	rowSz := Size(a.shape[1:])
	shape := cloneInts(a.shape)
	shape[0] = k
	start := 0
	if n < 0 {
		start = (ext - k) * rowSz
	}
	return &Array[T]{shape: shape, data: append([]T(nil), a.data[start:start+k*rowSz]...)}
}

// Drop removes the first n slices along axis 0 (the last -n for n < 0).
func Drop[T any](a *Array[T], n int) *Array[T] {
	if a.Dim() == 0 {
		panic(shapeErrf("Drop", "cannot drop from a scalar"))
	}
	ext := a.shape[0]
	k := n
	if k < 0 {
		k = -k
	}
	if k > ext {
		panic(shapeErrf("Drop", "drop %d exceeds extent %d", n, ext))
	}
	rowSz := Size(a.shape[1:])
	shape := cloneInts(a.shape)
	shape[0] = ext - k
	start := k * rowSz
	if n < 0 {
		start = 0
	}
	return &Array[T]{shape: shape, data: append([]T(nil), a.data[start:start+(ext-k)*rowSz]...)}
}

// Rotate cyclically shifts the array by n positions along the given axis
// (positive n moves elements towards higher indices).
func Rotate[T any](a *Array[T], axis, n int) *Array[T] {
	if axis < 0 || axis >= a.Dim() {
		panic(shapeErrf("Rotate", "axis %d out of range for rank %d", axis, a.Dim()))
	}
	ext := a.shape[axis]
	if ext == 0 {
		return a.Clone()
	}
	shift := ((n % ext) + ext) % ext
	out := &Array[T]{shape: a.shape, data: make([]T, len(a.data))}
	src := make([]int, a.Dim())
	dst := make([]int, a.Dim())
	for lin := 0; lin < len(a.data); lin++ {
		LinearToIndex(lin, a.shape, src)
		copy(dst, src)
		dst[axis] = (src[axis] + shift) % ext
		out.data[IndexToLinear(dst, a.shape)] = a.data[lin]
	}
	return out
}

// Reverse flips the array along the given axis.
func Reverse[T any](a *Array[T], axis int) *Array[T] {
	if axis < 0 || axis >= a.Dim() {
		panic(shapeErrf("Reverse", "axis %d out of range for rank %d", axis, a.Dim()))
	}
	out := &Array[T]{shape: a.shape, data: make([]T, len(a.data))}
	ext := a.shape[axis]
	idx := make([]int, a.Dim())
	for lin := 0; lin < len(a.data); lin++ {
		LinearToIndex(lin, a.shape, idx)
		idx[axis] = ext - 1 - idx[axis]
		out.data[IndexToLinear(idx, a.shape)] = a.data[lin]
	}
	return out
}

// Transpose exchanges the first two axes of a matrix (rank ≥ 2).
func Transpose[T any](p *sched.Pool, a *Array[T]) *Array[T] {
	if a.Dim() < 2 {
		panic(shapeErrf("Transpose", "needs rank >= 2, got %d", a.Dim()))
	}
	shape := cloneInts(a.shape)
	shape[0], shape[1] = shape[1], shape[0]
	out := &Array[T]{shape: shape, data: make([]T, len(a.data))}
	rows, cols := a.shape[0], a.shape[1]
	inner := Size(a.shape[2:])
	err := p.For(context.Background(), rows*cols, func(lo, hi int) {
		for rc := lo; rc < hi; rc++ {
			r, c := rc/cols, rc%cols
			srcOff := (r*cols + c) * inner
			dstOff := (c*rows + r) * inner
			copy(out.data[dstOff:dstOff+inner], a.data[srcOff:srcOff+inner])
		}
	})
	rethrow(err)
	return out
}

// Tile repeats the array reps times along axis 0.
func Tile[T any](a *Array[T], reps int) *Array[T] {
	if a.Dim() == 0 {
		panic(shapeErrf("Tile", "cannot tile a scalar"))
	}
	if reps < 0 {
		panic(shapeErrf("Tile", "negative repetition %d", reps))
	}
	shape := cloneInts(a.shape)
	shape[0] = a.shape[0] * reps
	data := make([]T, 0, len(a.data)*reps)
	for i := 0; i < reps; i++ {
		data = append(data, a.data...)
	}
	return &Array[T]{shape: shape, data: data}
}

// MinValue and MaxValue reduce a numeric array; they panic on empty arrays
// (no neutral element).
func MinValue[T Number](a *Array[T]) T {
	if len(a.data) == 0 {
		panic(shapeErrf("MinValue", "empty array"))
	}
	m := a.data[0]
	for _, v := range a.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// MaxValue returns the largest element.
func MaxValue[T Number](a *Array[T]) T {
	if len(a.data) == 0 {
		panic(shapeErrf("MaxValue", "empty array"))
	}
	m := a.data[0]
	for _, v := range a.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
