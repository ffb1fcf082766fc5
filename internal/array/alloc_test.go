package array

import "testing"

// TestArrayAllocGates pins what indexing and a sequential with-loop
// allocate, so that the counts cannot creep back.  Each limit is the figure
// reached; the figure in brackets is what the same call allocated when the
// engine recomputed every index vector by division and built its bounds
// with make.
func TestArrayAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	grid := New([]int{16, 16}, int64(3))
	cube, addNumber := New([]int{9, 9, 9}, true), addNumber9(4, 7, 4)
	zero, shape := []int{0, 0}, []int{16, 16}
	d := grid.Data()
	square := func(iv []int) int64 { v := d[iv[0]*16+iv[1]]; return v * v }
	add := func(a, b int64) int64 { return a + b }
	var sink int64

	gates := []struct {
		name string
		max  float64
		f    func()
	}{
		// [1 each] the index vector escaped through Offset's panic message
		{"At", 0, func() { sink += grid.At(3, 4) }},
		{"Set", 0, func() { grid.Set(5, 3, 4) }},
		// [6] the index vector handed to Body, which is a function value
		{"Fold, one rank-2 generator", 1, func() { sink += Fold(p1, 0, add, GenHalfOpen(zero, shape, square)) }},
		// [27] the result (Array, shape, data) and one index vector a
		// generator
		{"Modarray, addNumber's four rank-3 generators", 3 + 4, func() { Modarray(p1, cube, addNumber...) }},
	}
	for _, g := range gates {
		if got := testing.AllocsPerRun(100, g.f); got > g.max {
			t.Errorf("%s: %v allocations a call, want at most %v", g.name, got, g.max)
		}
	}
	_ = sink
}
