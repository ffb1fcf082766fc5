package sudoku

import "testing"

// TestSudokuAllocGates pins what the solver's array accesses allocate: the
// reads nothing, AddNumber what its two fresh values and its with-loop need,
// a placement into a pair its caller alone holds what the with-loop needs,
// ComputeOpts the same however many givens the board has.  Each limit is the
// figure reached; the figure in brackets is what the call allocated while
// array.At let its index vector escape, the with-loop engine built its bounds
// with make, every array had a shape vector of its own and every with-loop
// made an index vector and every placement its bounds.
func TestSudokuAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	b, full := Easy(), GenerateSolved(3, 1)
	o, _ := ComputeOpts(sp, b)
	ob, oo := b.Clone(), o.Clone() // the pair an owned frame of the search holds
	sink := 0
	var keep *Options // a result nobody holds may not be allocated at all
	gates := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Board.Get", 0, func() { sink += b.Get(4, 4) }},                      // [1]
		{"Board.Valid", 0, func() { _ = b.Valid() }},                          // [1]
		{"Options.Get", 0, func() { _ = o.Get(4, 4, 5) }},                     // [1]
		{"Options.Count", 0, func() { sink += o.Count(4, 4) }},                // [0]
		{"FindMinTrues", 0, func() { i, _, _ := FindMinTrues(o); sink += i }}, // [0]
		{"IsStuck", 0, func() { _ = IsStuck(b, o) }},                          // [81, one a Get]
		// [43, then 13, then 8: the bounds, the index vector] board and
		// options (a struct, an Array and its data each)
		{"AddNumber", 6, func() { var nb *Board; nb, keep = AddNumber(sp, b, o, 0, 2, 4); sink += nb.Get(0, 2) }},
		// [8, as AddNumber, then 2: the bounds, the index vector] nothing:
		// the bounds live in the options, the index vector in the cube
		{"addNumber, owned", 0, func() { _, keep = addNumber(sp, ob, oo, 0, 2, 4, true) }},
		// [13 a given: 400 and 1 063, then 10 with a copy of the cube, then
		// 8 with four generators a given, the bounds and an index vector]
		// the unit masks, the body, the cube (three: the shape as kept, the
		// Array, the data), the Options
		{"ComputeOpts, 30 givens", 6, func() { keep, _ = ComputeOpts(sp, b) }},
		{"ComputeOpts, 81 givens", 6, func() { keep, _ = ComputeOpts(sp, full) }},
		// [418, AddNumber at each of the 51 placements, then 116 with 2 an
		// owned placement] ComputeOpts and the top frame's one placement,
		// which copies; the 50 owned ones allocate nothing
		{"Solve Easy from ComputeOpts", 12, func() { oe, _ := ComputeOpts(sp, b); _, keep, _ = Solve(sp, b, oe) }},
	}
	for _, g := range gates {
		if got := testing.AllocsPerRun(100, g.f); got > g.max {
			t.Errorf("%s: %v allocations a call, want at most %v", g.name, got, g.max)
		}
	}
	_, _ = sink, keep
}
