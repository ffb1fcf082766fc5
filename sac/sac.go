// Package sac is the public API of the SaC array substrate: state-less
// n-dimensional arrays with the with-loop comprehensions of §2 of the paper
// (genarray, modarray, fold), executed data-parallel on a worker pool.
//
//	p := sac.NewPool(4) // a "4-thread SaC executable"
//	v := sac.Genarray(p, []int{5}, 0,
//	    sac.GenHalfOpen([]int{1}, []int{4}, func(iv []int) int { return 42 }))
//	// v == [0,42,42,42,0]
//
// A generator's body is handed the index vector the engine is stepping: it
// must neither modify nor retain it.  One vector serves every generator of
// a with-loop, so a retained one is overwritten by the next generator too;
// a body that needs the index later copies it.
//
// See sac/lang for the interpreter that runs Core SaC source directly.
package sac

import (
	"repro/internal/array"
	"repro/internal/sched"
)

type (
	// Pool bounds the data-parallel width of with-loop execution.
	Pool = sched.Pool
	// ShapeError reports invalid shapes, bounds or indices.
	ShapeError = array.ShapeError
)

// Array is an n-dimensional array; scalars are rank-0 arrays.
type Array[T any] = array.Array[T]

// Gen describes one with-loop generator.
type Gen[T any] = array.Gen[T]

// Pool management.
var (
	NewPool          = sched.New
	NewPoolWithGrain = sched.NewWithGrain
)

// Construction.
func New[T any](shape []int, fill T) *Array[T]         { return array.New(shape, fill) }
func FromSlice[T any](shape []int, data []T) *Array[T] { return array.FromSlice(shape, data) }
func Scalar[T any](v T) *Array[T]                      { return array.Scalar(v) }
func Vector[T any](vs ...T) *Array[T]                  { return array.Vector(vs...) }

// Iota returns [0, 1, ..., n-1].
var Iota = array.Iota

// With-loops (§2).
func GenHalfOpen[T any](lower, upper []int, body func(iv []int) T) Gen[T] {
	return array.GenHalfOpen(lower, upper, body)
}
func GenClosed[T any](lower, upper []int, body func(iv []int) T) Gen[T] {
	return array.GenClosed(lower, upper, body)
}
func Genarray[T any](p *Pool, shape []int, def T, gens ...Gen[T]) *Array[T] {
	return array.Genarray(p, shape, def, gens...)
}
func Modarray[T any](p *Pool, src *Array[T], gens ...Gen[T]) *Array[T] {
	return array.Modarray(p, src, gens...)
}
func Fold[T any](p *Pool, neutral T, op func(a, b T) T, gens ...Gen[T]) T {
	return array.Fold(p, neutral, op, gens...)
}

// Elementwise operations and reductions.
func Map[T, U any](p *Pool, a *Array[T], f func(T) U) *Array[U] { return array.Map(p, a, f) }
func Zip[T, U, V any](p *Pool, a *Array[T], b *Array[U], f func(T, U) V) *Array[V] {
	return array.Zip(p, a, b, f)
}
func Add[T array.Number](p *Pool, a, b *Array[T]) *Array[T] { return array.Add(p, a, b) }
func Sub[T array.Number](p *Pool, a, b *Array[T]) *Array[T] { return array.Sub(p, a, b) }
func Mul[T array.Number](p *Pool, a, b *Array[T]) *Array[T] { return array.Mul(p, a, b) }
func Sum[T array.Number](p *Pool, a *Array[T]) T            { return array.Sum(p, a) }
func CountTrue(p *Pool, a *Array[bool]) int                 { return array.CountTrue(p, a) }
func All(p *Pool, a *Array[bool]) bool                      { return array.All(p, a) }
func Any(p *Pool, a *Array[bool]) bool                      { return array.Any(p, a) }
func Concat[T any](a, b *Array[T]) *Array[T]                { return array.Concat(a, b) }
func Equal[T comparable](a, b *Array[T]) bool               { return array.Equal(a, b) }
func Where(a *Array[bool]) [][]int                          { return array.Where(a) }

// SaC standard-library structural operations (take, drop, rotate, reverse,
// transpose, tile — the "universally applicable array operations" of §2).
func Take[T any](a *Array[T], n int) *Array[T]         { return array.Take(a, n) }
func Drop[T any](a *Array[T], n int) *Array[T]         { return array.Drop(a, n) }
func Rotate[T any](a *Array[T], axis, n int) *Array[T] { return array.Rotate(a, axis, n) }
func Reverse[T any](a *Array[T], axis int) *Array[T]   { return array.Reverse(a, axis) }
func Transpose[T any](p *Pool, a *Array[T]) *Array[T]  { return array.Transpose(p, a) }
func Tile[T any](a *Array[T], reps int) *Array[T]      { return array.Tile(a, reps) }
func MinValue[T array.Number](a *Array[T]) T           { return array.MinValue(a) }
func MaxValue[T array.Number](a *Array[T]) T           { return array.MaxValue(a) }
