package array

import (
	"context"
	"slices"

	"repro/internal/sched"
)

// Number constrains element types that support arithmetic.
type Number interface {
	~int | ~int64 | ~float64
}

// Map applies f elementwise, producing a fresh array of the same shape.
func Map[T, U any](p *sched.Pool, a *Array[T], f func(T) U) *Array[U] {
	out := &Array[U]{shape: a.shape, data: make([]U, len(a.data))}
	err := p.For(context.Background(), len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = f(a.data[i])
		}
	})
	rethrow(err)
	return out
}

// Zip combines two same-shaped arrays elementwise.
func Zip[T, U, V any](p *sched.Pool, a *Array[T], b *Array[U], f func(T, U) V) *Array[V] {
	if !slices.Equal(a.shape, b.shape) {
		panic(shapeErrf("Zip", "shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := &Array[V]{shape: a.shape, data: make([]V, len(a.data))}
	err := p.For(context.Background(), len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = f(a.data[i], b.data[i])
		}
	})
	rethrow(err)
	return out
}

// Add returns the elementwise sum a + b.
func Add[T Number](p *sched.Pool, a, b *Array[T]) *Array[T] {
	return Zip(p, a, b, func(x, y T) T { return x + y })
}

// Sub returns the elementwise difference a - b.
func Sub[T Number](p *sched.Pool, a, b *Array[T]) *Array[T] {
	return Zip(p, a, b, func(x, y T) T { return x - y })
}

// Mul returns the elementwise product a * b.
func Mul[T Number](p *sched.Pool, a, b *Array[T]) *Array[T] {
	return Zip(p, a, b, func(x, y T) T { return x * y })
}

// AddScalar returns a + s with s broadcast over every element.
func AddScalar[T Number](p *sched.Pool, a *Array[T], s T) *Array[T] {
	return Map(p, a, func(x T) T { return x + s })
}

// MulScalar returns a * s with s broadcast over every element.
func MulScalar[T Number](p *sched.Pool, a *Array[T], s T) *Array[T] {
	return Map(p, a, func(x T) T { return x * s })
}

// Sum reduces the array with +.
func Sum[T Number](p *sched.Pool, a *Array[T]) T {
	out, err := sched.Reduce(p, context.Background(), len(a.data), T(0),
		func(lo, hi int, acc T) T {
			for i := lo; i < hi; i++ {
				acc += a.data[i]
			}
			return acc
		}, func(x, y T) T { return x + y })
	rethrow(err)
	return out
}

// CountTrue returns the number of true elements of a boolean array.
func CountTrue(p *sched.Pool, a *Array[bool]) int {
	out, err := sched.Reduce(p, context.Background(), len(a.data), 0,
		func(lo, hi, acc int) int {
			for i := lo; i < hi; i++ {
				if a.data[i] {
					acc++
				}
			}
			return acc
		}, func(x, y int) int { return x + y })
	rethrow(err)
	return out
}

// All reports whether every element is true; true for empty arrays.
func All(p *sched.Pool, a *Array[bool]) bool {
	return !slices.Contains(a.data, false) // short-circuit beats parallel dispatch here
}

// Any reports whether at least one element is true; false for empty arrays.
func Any(p *sched.Pool, a *Array[bool]) bool { return slices.Contains(a.data, true) }

// Eq compares two same-shaped arrays elementwise into a boolean array.
func Eq[T comparable](p *sched.Pool, a, b *Array[T]) *Array[bool] {
	return Zip(p, a, b, func(x, y T) bool { return x == y })
}

// Concat concatenates two arrays along axis 0 — the paper's ++ operator (§2)
// generalised from vectors to any rank: all trailing extents must agree.
func Concat[T any](a, b *Array[T]) *Array[T] {
	if a.Dim() == 0 || b.Dim() == 0 {
		panic(shapeErrf("Concat", "cannot concatenate scalars"))
	}
	if !slices.Equal(a.shape[1:], b.shape[1:]) {
		panic(shapeErrf("Concat", "trailing shapes differ: %v vs %v", a.shape, b.shape))
	}
	shape := cloneInts(a.shape)
	shape[0] = a.shape[0] + b.shape[0]
	data := make([]T, 0, len(a.data)+len(b.data))
	data = append(data, a.data...)
	data = append(data, b.data...)
	return &Array[T]{shape: shape, data: data}
}

// Iota returns the vector [0, 1, ..., n-1] (the paper's second §2 example).
func Iota(n int) *Array[int] {
	a := &Array[int]{shape: []int{n}, data: make([]int, n)}
	for i := range a.data {
		a.data[i] = i
	}
	return a
}

// Where returns the index vectors (row-major order) of all true elements.
func Where(a *Array[bool]) [][]int {
	var out [][]int
	if len(a.data) == 0 {
		return out
	}
	rank := a.Dim()
	for lin := 0; lin < len(a.data); lin++ {
		if a.data[lin] {
			iv := make([]int, rank)
			LinearToIndex(lin, a.shape, iv)
			out = append(out, iv)
		}
	}
	return out
}
