package array

import (
	"runtime"
	"testing"

	"repro/internal/sched"
)

// TestArrayAllocGates pins what construction, indexing and with-loops
// allocate, so that the counts cannot creep back.  Each limit is the figure
// reached; the figure in brackets is what the same call allocated when the
// engine recomputed every index vector by division, built its bounds with
// make and gave every array a shape vector of its own.
func TestArrayAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	grid := New([]int{16, 16}, int64(3))
	cube, addNumber := New([]int{9, 9, 9}, true), addNumber9(4, 7, 4)
	zero, shape, big := []int{0, 0}, []int{16, 16}, []int{256, 256}
	d := grid.Data()
	square := func(iv []int) int64 { v := d[iv[0]*16+iv[1]]; return v * v }
	add := func(a, b int64) int64 { return a + b }
	row := []Gen[int64]{GenHalfOpen(zero, big, func(iv []int) int64 { return int64(iv[0]) })}
	wide := sched.New(2)
	var sink int64
	var keep *Array[int64] // a result nobody holds may not be allocated at all

	gates := []struct {
		name string
		max  float64
		f    func()
	}{
		// [1 each] the index vector escaped through Offset's panic message
		{"At", 0, func() { sink += grid.At(3, 4) }},
		{"Set", 0, func() { grid.Set(5, 3, 4) }},
		// the Array, its shape and its data
		{"New", 3, func() { keep = New(shape, int64(7)) }},
		// [3 each] the Array and its data: the shape is the source's
		{"Clone", 2, func() { keep = grid.Clone() }},
		{"WithAt", 2, func() { keep = grid.WithAt(5, 3, 4) }},
		// [6] the index vector handed to Body, which is a function value
		{"Fold, one rank-2 generator", 1, func() { sink += Fold(p1, 0, add, GenHalfOpen(zero, shape, square)) }},
		// [27, then 3 + 4] the result (Array, data) and one index vector a
		// with-loop
		{"Modarray, addNumber's four rank-3 generators", 2 + 1, func() { Modarray(p1, cube, addNumber...) }},
		// what New takes, the detached generator's bounds, one closure
		// holding generator and span, the pool's bookkeeping and one index
		// vector a chunk (eight chunks): the count from before the inline
		// path shared its vector, which the chunked path must not exceed
		{"Genarray, 256x256 in chunks on a pool of two", 19, func() { keep = Genarray(wide, big, 0, row...) }},
	}
	for _, g := range gates {
		if got := testing.AllocsPerRun(100, g.f); got > g.max {
			t.Errorf("%s: %v allocations a call, want at most %v", g.name, got, g.max)
		}
	}
	_, _ = sink, keep
}

// An update out of range must be refused before the array is copied, not
// after: the panic is the same, the copy is what the caller would pay for.
func TestWithAtChecksBeforeItCopies(t *testing.T) {
	a := New([]int{1 << 20}, int64(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer wantShapePanic(t, "Offset")
		a.WithAt(2, 1<<20)
	}()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("a refused WithAt allocated %d bytes: it copied the array first", got)
	}
}
