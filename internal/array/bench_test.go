package array

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// addNumber9 is the paper's addNumber (§3) as the engine sees it: four
// closed rank-3 generators writing false into a 9x9x9 cube — six rows, each
// along its generator's innermost moving axis: nine along k, nine along j,
// nine along i, then three of three along j.
func addNumber9(i, j, k0 int) []Gen[bool] {
	no := func([]int) bool { return false }
	is, js := i/3*3, j/3*3
	return []Gen[bool]{
		GenClosed([]int{i, j, 0}, []int{i, j, 8}, no),
		GenClosed([]int{i, 0, k0}, []int{i, 8, k0}, no),
		GenClosed([]int{0, j, k0}, []int{8, j, k0}, no),
		GenClosed([]int{is, js, k0}, []int{is + 2, js + 2, k0}, no),
	}
}

// BenchmarkWithLoop prices the engine on the three loop shapes the
// repository's workloads run: long dense rows written (a 5-point clamped
// stencil), long dense rows folded (a sum of squares), and short strided rows
// (addNumber, into a copy and, as the search runs it, into a cube it holds).
// What a with-loop costs inside a network is measured by `go run ./benchmark`
// (array.*, stencil_boxes, sudoku_search); no document quotes a number from
// here.
func BenchmarkWithLoop(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(1))
	d := make([]int64, n*n)
	for i := range d {
		d[i] = rng.Int63n(1000)
	}
	zero, shape := []int{0, 0}, []int{n, n}
	smooth := func(iv []int) int64 {
		i, j := iv[0], iv[1]
		up, down, left, right := max(i-1, 0), min(i+1, n-1), max(j-1, 0), min(j+1, n-1)
		return (4*d[i*n+j] + d[up*n+j] + d[down*n+j] + d[i*n+left] + d[i*n+right]) / 8
	}
	square := func(iv []int) int64 { v := d[iv[0]*n+iv[1]]; return v * v }
	add := func(a, b int64) int64 { return a + b }
	cube, addNumber := New([]int{9, 9, 9}, true), addNumber9(4, 7, 4)

	seq, par := sched.New(1), sched.New(0)
	b.Run("smooth256/seq", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Genarray(seq, shape, 0, GenHalfOpen(zero, shape, smooth))
		}
	})
	b.Run("smooth256/par", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Genarray(par, shape, 0, GenHalfOpen(zero, shape, smooth))
		}
	})
	b.Run("fold256/seq", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Fold(seq, 0, add, GenHalfOpen(zero, shape, square))
		}
	})
	b.Run("addnumber9/seq", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Modarray(seq, cube, addNumber...)
		}
	})
	b.Run("addnumber9/owned", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			ModarrayOwned(seq, cube, addNumber...)
		}
	})
}
